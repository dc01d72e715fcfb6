"""Ablation: the eager/rendezvous threshold.

The small-message overhead knee of Figure 4 sits where per-partition
messages stop being latency-bound relative to the single send.  Moving
the eager threshold moves protocol boundaries for partitions vs whole
messages; this ablation shows the overhead ratio's sensitivity, which is
why DESIGN.md lists the threshold as a calibrated parameter.
"""

from conftest import emit

from repro.core import (PtpBenchmarkConfig, ascii_table, format_bytes,
                        run_ptp_benchmark)
from repro.network import NIAGARA_EDR


def _overhead(m, n, threshold):
    cfg = PtpBenchmarkConfig(
        message_bytes=m, partitions=n, compute_seconds=0.002,
        iterations=3, warmup=1,
        inter_node=NIAGARA_EDR.with_overrides(eager_threshold=threshold))
    return run_ptp_benchmark(cfg).overhead.mean


def test_ablation_protocol():
    thresholds = (4 * 1024, 16 * 1024, 64 * 1024)
    sizes = (16384, 65536, 262144)

    results = {t: {m: _overhead(m, 8, t) for m in sizes}
               for t in thresholds}
    rows = []
    for t, by_size in results.items():
        rows.append([format_bytes(t)]
                    + [f"{by_size[m]:.2f}" for m in sizes])
    text = ascii_table(
        ["eager threshold"] + [format_bytes(m) for m in sizes], rows,
        title="Ablation — eager/rendezvous threshold, overhead (x), "
              "8 partitions")
    emit("ablation_protocol", text)

    # The knee responds to the threshold: with a 64 KiB threshold the
    # 64 KiB message is eager whole but its 8 KiB partitions are too,
    # whereas at a 4 KiB threshold everything rendezvous — ratios differ.
    spread = [results[t][65536] for t in thresholds]
    assert max(spread) > 1.15 * min(spread)
