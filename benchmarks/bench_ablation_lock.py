"""Ablation: the MULTIPLE-mode library lock and progress contention.

The design claim behind the pattern results: what makes multi-threaded
point-to-point lose to partitioned communication is lock traffic — the
per-call library lock plus blocked waiters bouncing the progress lock.
Zeroing those costs should close most of the Sweep3D multi-vs-partitioned
gap; this bench quantifies how much.
"""

from conftest import emit

from repro.core import ascii_table
from repro.mpi import DEFAULT_COSTS
from repro.patterns import (CommMode, PatternConfig, Sweep3DGrid,
                            run_sweep3d)

GRID = Sweep3DGrid(3, 3)
NOLOCK = DEFAULT_COSTS.with_overrides(lock_hold=0.0,
                                      lock_remote_penalty=0.0,
                                      progress_contention=0.0)


def _thpt(mode, costs):
    cfg = PatternConfig(mode=mode, threads=16, message_bytes=1 << 20,
                        compute_seconds=0.010, steps=4, iterations=2,
                        warmup=1, costs=costs)
    return run_sweep3d(cfg, GRID).mean_throughput


def test_ablation_lock():
    results = {
        ("multi", "baseline"): _thpt(CommMode.MULTI, DEFAULT_COSTS),
        ("multi", "no locks"): _thpt(CommMode.MULTI, NOLOCK),
        ("partitioned", "baseline"): _thpt(CommMode.PARTITIONED,
                                           DEFAULT_COSTS),
        ("partitioned", "no locks"): _thpt(CommMode.PARTITIONED, NOLOCK),
        ("single", "baseline"): _thpt(CommMode.SINGLE, DEFAULT_COSTS),
    }
    rows = [[f"{mode} / {variant}", f"{v / 1e9:.2f}"]
            for (mode, variant), v in results.items()]
    text = ascii_table(["configuration", "GB/s"], rows,
                       title="Ablation — library lock & progress "
                             "contention, Sweep3D 1 MiB, 16 threads")
    emit("ablation_lock", text)

    multi_base = results[("multi", "baseline")]
    multi_nolock = results[("multi", "no locks")]
    part_base = results[("partitioned", "baseline")]
    single = results[("single", "baseline")]
    # The lock is what sinks MULTI below single-threaded...
    assert multi_base < single
    # ...because removing it recovers a large factor...
    assert multi_nolock > 2.0 * multi_base
    # ...while partitioned barely cares (its receivers poll lock-free).
    part_nolock = results[("partitioned", "no locks")]
    assert part_nolock < 1.5 * part_base
