"""Ablation: hot vs cold cache (§3.4 / §4.2).

The paper observes *lower* overhead ratios with a cold cache because the
DRAM read cost lands on both the partitioned path (parallel per-thread
bounce-buffer copies) and the single-send path (one serial copy), and
amortizes the per-partition overheads.  The effect lives entirely in the
eager regime — rendezvous transfers are zero-copy — which this ablation
demonstrates by sweeping across the eager threshold.
"""

from conftest import emit

from repro.core import (COLD, HOT, PtpBenchmarkConfig, ascii_table,
                        format_bytes, run_ptp_benchmark)


def _overhead(m, n, cache):
    cfg = PtpBenchmarkConfig(message_bytes=m, partitions=n, cache=cache,
                             compute_seconds=0.002, iterations=3, warmup=1)
    return run_ptp_benchmark(cfg).overhead.mean


def test_ablation_cache():
    sizes = (1024, 4096, 16384, 65536, 1 << 20)

    results = {m: (_overhead(m, 16, HOT), _overhead(m, 16, COLD))
               for m in sizes}
    rows = [[format_bytes(m), f"{hot:.2f}", f"{cold:.2f}",
             f"{cold / hot:.2f}"]
            for m, (hot, cold) in results.items()]
    text = ascii_table(["message", "hot (x)", "cold (x)", "cold/hot"],
                       rows,
                       title="Ablation — cache state, 16 partitions")
    emit("ablation_cache", text)

    # In the eager regime the cold ratio sits at or below hot...
    for m in (4096, 16384):
        hot, cold = results[m]
        assert cold <= hot * 1.05
    # ...and the amortization is material at the threshold sizes.
    hot16k, cold16k = results[16384]
    assert cold16k < hot16k * 0.9
    # Past the eager threshold both paths are zero-copy: no difference.
    hot1m, cold1m = results[1 << 20]
    assert abs(cold1m - hot1m) / hot1m < 0.15
