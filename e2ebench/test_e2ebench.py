"""Tests of the end-to-end benchmark itself, on its tiny inputs.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, *extra: str, cwd: pathlib.Path = ROOT):
    """Run one tiny benchmark; returns (exit code, stdout lines)."""
    command = [sys.executable, str(cwd / "e2ebench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "0.2",
               "--size", "tiny", *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


def _corrupt(tmp_path: pathlib.Path, operation: str) -> pathlib.Path:
    pins = json.loads((HERE / "pins.json").read_text())
    pins["tiny"][operation] = "0" * 64
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    return path


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in PER_LAYER]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    code, lines = _run(workload, "--trace", "0")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for name, unit in END_TO_END.items():  # printed by name with its unit
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted(workload):
    code, lines = _run(workload, "--trace", "1")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], lines
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} \
        == {name: unit for name, unit, _, _ in PER_LAYER}
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert metrics["sim.self_s"] > 0 and metrics["sim.events"] > 0
    if workload == "figures-cold":
        assert metrics["pool.tasks"] > 0 and metrics["analytic.cells"] > 0
        assert metrics["patterns.motif_runs"] > 0
    if workload == "service-mixed":
        assert metrics["service.batches"] > 0
    assert any("tracing overhead" in line for line in lines)


@pytest.mark.parametrize("operation", ["fig5", "fig11a", "fig4-analytic"])
def test_a_corrupted_pin_fails_the_run(tmp_path, operation):
    pins = _corrupt(tmp_path, operation)
    code, lines = _run("figures-cold", "--trace", "0", "--pins", str(pins))
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == 1
    assert any(line.strip().startswith(f"FAILED: {operation}:")
               for line in lines)


def test_without_the_sources_the_run_fails_fast(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run("figures-cold", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
