"""A finished simulation frees itself by reference counting.

Each entry point below runs with the cycle collector switched off and its
results dropped; ``gc.collect()`` must then find nothing.  Anything it
finds is a reference cycle some finished trial, motif run or SNAP row
left behind, which only the collector would have freed (see DESIGN.md,
"Memory: no reference cycles").  A failure names the leftover types.
"""

from __future__ import annotations

import gc
import traceback
from collections import Counter

import pytest

from repro.core import COLD, PtpBenchmarkConfig
from repro.core.runner import run_ptp_trial
from repro.mpi import Cluster
from repro.noise import UniformNoise
from repro.obs import MemorySink
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
    "one_partition": _trial(partitions=1),
    "32_partitions": _trial(partitions=32),
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



def test_trial_with_a_record_keeping_sink_leaves_no_cycles():
    """A kept ``part.*`` record holds its request, whose bus held the
    sink until the stream was finalized."""
    sinks = []

    def run():
        sink = MemorySink()
        run_ptp_trial(_trial(), sinks=[sink])
        sinks.append(len(sink.filter("part.pready")))

    assert_no_cycles(run)
    assert sinks == [12]  # 4 partitions x 3 iterations, still kept


def test_run_ended_by_a_program_error_leaves_no_cycles():
    """Rank 0 fails while rank 1 waits in ``recv``: the caller gets the
    program's own exception and traceback, and the world is freed."""
    seen = []

    def program(ctx):
        if ctx.rank == 0:
            yield ctx.sim.timeout(1e-4)
            raise ValueError("rank 0 gives up")
        yield from ctx.comm.recv(ctx.main, 0, 5, 1024)

    def run():
        try:
            Cluster(nranks=2).run(program)
        except ValueError as exc:
            frames = traceback.extract_tb(exc.__traceback__)
            seen.append((str(exc), frames[0].name, frames[-1].name))

    assert_no_cycles(run)
    assert seen == [("rank 0 gives up", "run", "program")]


def test_run_ended_mid_transmission_leaves_no_cycles():
    """Rank 0 fails while its NIC is still serializing an eager send:
    the abandoned transmission's completion hook, which refers back to
    the rank's engine, must not keep the world."""
    busy = []

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.isend(ctx.main, 1, 5, 8 * 1024)
            yield ctx.sim.timeout(1e-7)
            nic = ctx.proc.nic
            busy.append(nic._current is not None
                        and bool(nic._current.injected.callbacks))
            raise ValueError("rank 0 gives up")
        yield from ctx.comm.recv(ctx.main, 0, 5, 8 * 1024)

    def run():
        with pytest.raises(ValueError, match="gives up"):
            Cluster(nranks=2).run(program)

    assert_no_cycles(run)
    assert busy == [True]
