"""The benchmark kernel registry and the gate's verdict (no timing).

``scripts/bench_guard.py`` defines each kernel once, with the value it
must return; the gates around it (per-kernel budgets, same-tree ratio
budgets) must all name registry entries.  The verdict is tested on
seeded synthetic per-round ratios.
"""

import pathlib
import random
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import bench_guard  # noqa: E402
from bench_guard import (DEFAULT_LIMIT, KERNELS, RATIO_CHECKS,  # noqa: E402
                         ROUNDS, THRESHOLDS, verdict)


def test_every_budget_names_a_kernel():
    assert set(THRESHOLDS) <= set(KERNELS)
    for fast, slow, _ in RATIO_CHECKS:
        assert fast in KERNELS and slow in KERNELS


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


def _ratios(shift, seed):
    """Per-round candidate/baseline ratios of two timings with 15%
    noise each whose true times differ by ``shift``."""
    rng = random.Random(seed)
    return [shift * rng.lognormvariate(0, 0.15) / rng.lognormvariate(0, 0.15)
            for _ in range(ROUNDS)]


@pytest.mark.parametrize("seed", range(5))
def test_identical_distributions_pass(seed):
    assert verdict(_ratios(1.0, seed), DEFAULT_LIMIT).ok
    assert verdict(_ratios(1.0, seed), 1.05).ok


@pytest.mark.parametrize("seed", range(5))
def test_a_slowdown_over_budget_fails(seed):
    assert not verdict(_ratios(1.3, seed), DEFAULT_LIMIT).ok
    assert not verdict(_ratios(1.15, seed), 1.05).ok


def test_one_outlier_round_does_not_fail():
    ratios = _ratios(1.0, 0)
    ratios[7] = 3.0
    assert verdict(ratios, 1.05).ok


def test_verdict_fails_only_above_the_whole_interval():
    v = verdict([1.0, 1.5] * (ROUNDS // 2), DEFAULT_LIMIT)
    assert v.low < DEFAULT_LIMIT < v.ratio and v.ok
    assert not verdict([1.25, 1.3] * (ROUNDS // 2), DEFAULT_LIMIT).ok
