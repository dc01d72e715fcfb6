"""The benchmark kernel registry: every gate names a kernel (no timing).

``scripts/bench_guard.py`` defines each kernel once, with the value it
must return; the gates around it (baseline scores, per-kernel budgets,
same-run ratio budgets) must all name registry entries, and every entry
must have a baseline score.
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import bench_guard  # noqa: E402
from bench_guard import KERNELS, RATIO_CHECKS, THRESHOLDS  # noqa: E402


def test_every_budget_names_a_kernel():
    assert set(THRESHOLDS) <= set(KERNELS)
    for fast, slow, _ in RATIO_CHECKS:
        assert fast in KERNELS and slow in KERNELS


def test_baseline_scores_exactly_the_registry():
    baseline = json.loads((ROOT / "BENCH_BASELINE.json").read_text())
    assert baseline["version"] == bench_guard.BASELINE_VERSION
    assert set(baseline["scores"]) == set(KERNELS)


def test_every_kernel_has_a_body_and_an_expected_value():
    for name, (fn, expected) in KERNELS.items():
        assert fn.__name__ == name
        assert expected is not None


def test_check_rejects_a_wrong_value_or_type():
    bench_guard.check("timeout_dispatch", 1000)
    with pytest.raises(AssertionError, match="timeout_dispatch"):
        bench_guard.check("timeout_dispatch", 999)
    with pytest.raises(AssertionError):
        bench_guard.check("obs_emission_disabled", 0)   # not ``False``


def test_teardown_removes_what_fixtures_left():
    root = bench_guard._temp_dir("repro-bench-test-")
    assert root.is_dir()
    bench_guard.teardown()
    assert not root.exists()
