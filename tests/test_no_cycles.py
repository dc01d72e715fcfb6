"""A finished simulation frees itself by reference counting.

Each entry point below runs with the cycle collector switched off and its
results dropped; ``gc.collect()`` must then find nothing.  Anything it
finds is a reference cycle some finished trial, motif run or SNAP row
left behind, which only the collector would have freed (see DESIGN.md,
"Memory: no reference cycles").  A failure names the leftover types.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.core import COLD, PtpBenchmarkConfig
from repro.core.runner import run_ptp_trial
from repro.faults import parse_fault_spec
from repro.noise import UniformNoise
from repro.patterns import CommMode, PatternConfig, run_motif
from repro.proxy.snap import SnapConfig, run_snap
from repro.service import SweepScheduler


def _cyclic_garbage(run) -> Counter:
    """Types of the objects ``run()`` leaves in reference cycles."""
    while gc.collect():
        pass  # garbage from before the run is not the run's
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
        assert sum(kinds.values()) == found
        return kinds
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def assert_no_cycles(run) -> None:
    kinds = _cyclic_garbage(run)
    assert not kinds, (
        f"{sum(kinds.values())} objects left in reference cycles: "
        f"{dict(kinds.most_common(12))}")


def _trial(**overrides) -> PtpBenchmarkConfig:
    base = dict(message_bytes=64 * 1024, partitions=4,
                compute_seconds=0.001, iterations=2, warmup=1, seed=3)
    base.update(overrides)
    return PtpBenchmarkConfig(**base)


TRIALS = {
    "hot": _trial(),
    "cold": _trial(cache=COLD),
    "noisy": _trial(noise=UniformNoise(4.0)),
    "native": _trial(impl="native"),
    "one_partition": _trial(partitions=1),
    "32_partitions": _trial(partitions=32),
    "lossy": _trial(faults=parse_fault_spec("drop=0.2")),
    "failstop_deadline": _trial(
        faults=parse_fault_spec("failstop=1@0.0005,deadline=0.01")),
    "drop_deadline": _trial(
        faults=parse_fault_spec("drop=0.9,deadline=0.002")),
}


@pytest.mark.parametrize("name", sorted(TRIALS))
def test_ptp_trial_leaves_no_cycles(name):
    assert_no_cycles(lambda: run_ptp_trial(TRIALS[name]))


@pytest.mark.parametrize("mode", list(CommMode), ids=lambda m: m.value)
@pytest.mark.parametrize("motif,threads", [("sweep3d", 4), ("halo3d", 8)])
def test_motif_run_leaves_no_cycles(motif, threads, mode):
    config = PatternConfig(mode=mode, threads=threads,
                           message_bytes=64 * 1024, compute_seconds=0.001,
                           steps=2, iterations=1, warmup=1)
    assert_no_cycles(lambda: run_motif(motif, config))


def test_snap_row_leaves_no_cycles():
    config = SnapConfig(nodes=4, blocks=4, total_compute=0.05)
    assert_no_cycles(lambda: run_snap(config))


def test_inline_service_request_leaves_no_cycles():
    scheduler = SweepScheduler(jobs=1, dispatchers=1, batch_window=0.0)
    try:
        assert_no_cycles(lambda: scheduler.execute(_trial(seed=11),
                                                   timeout=60))
        assert scheduler.stats.as_dict()["executed"] == 1
    finally:
        scheduler.stop()

