"""Ablation: partition granularity at a fixed thread count.

The paper maps one thread to one partition throughout (§2.1) but notes the
standard allows several partitions per thread.  This ablation holds the
team at 8 threads and splits the same 4 MiB message ever finer — the
partition-size guidance question ("how should I size partitions?") posed
directly: finer partitions start transfers earlier within each thread's
pready loop but pay more per-message overhead.
"""

from conftest import emit

from repro.core import (PtpBenchmarkConfig, ascii_table,
                        run_ptp_benchmark)
from repro.noise import UniformNoise

THREADS = 8
MESSAGE = 4 << 20


def _result(partitions):
    cfg = PtpBenchmarkConfig(
        message_bytes=MESSAGE, partitions=partitions,
        partitions_per_thread=partitions // THREADS,
        compute_seconds=0.010, noise=UniformNoise(4.0),
        iterations=3, warmup=1)
    return run_ptp_benchmark(cfg)


def test_ablation_granularity():
    grid = (8, 16, 32, 64, 128)

    results = {n: _result(n) for n in grid}
    rows = []
    for n, res in results.items():
        rows.append([
            str(n), str(n // THREADS),
            f"{res.overhead.mean:.2f}",
            f"{res.perceived_bandwidth.mean / 1e9:.1f}",
            f"{res.application_availability.mean:.3f}",
            f"{res.early_bird_fraction.mean * 100:.1f}",
        ])
    text = ascii_table(
        ["partitions", "per thread", "overhead (x)", "pbw GB/s",
         "availability", "early-bird %"],
        rows,
        title=f"Ablation — partition granularity, {THREADS} threads, "
              f"4 MiB, 10ms, uniform 4%")
    emit("ablation_granularity", text)

    # Finer partitions cost more network overhead...
    assert results[128].overhead.mean > results[8].overhead.mean
    # ...while availability stays in the same band (the threads, not the
    # partition count, set the overlap window).
    assert abs(results[128].application_availability.mean
               - results[8].application_availability.mean) < 0.25
