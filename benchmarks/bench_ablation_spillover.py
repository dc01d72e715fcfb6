"""Ablation: the 32-partition socket-spillover spike (§4.2 text).

Zeroing the inter-socket injection penalty and the remote lock-bounce
penalty removes the spike the paper attributes to threads spilling onto
the second socket — confirming the model's mechanism matches the paper's
explanation, and quantifying each knob's share.
"""

from conftest import emit

from repro.core import PtpBenchmarkConfig, ascii_table, run_ptp_benchmark
from repro.machine import NIAGARA_NODE
from repro.mpi import DEFAULT_COSTS


def _overhead(m, n, spec=NIAGARA_NODE, costs=DEFAULT_COSTS):
    cfg = PtpBenchmarkConfig(message_bytes=m, partitions=n,
                             compute_seconds=0.002, iterations=3, warmup=1,
                             spec=spec, costs=costs)
    return run_ptp_benchmark(cfg).overhead.mean


def test_ablation_spillover():
    variants = {
        "baseline": (NIAGARA_NODE, DEFAULT_COSTS),
        "no NUMA injection penalty": (
            NIAGARA_NODE.with_overrides(inter_socket_penalty=0.0),
            DEFAULT_COSTS),
        "no remote lock penalty": (
            NIAGARA_NODE,
            DEFAULT_COSTS.with_overrides(lock_remote_penalty=0.0)),
        "neither penalty": (
            NIAGARA_NODE.with_overrides(inter_socket_penalty=0.0),
            DEFAULT_COSTS.with_overrides(lock_remote_penalty=0.0)),
    }
    results = {name: (_overhead(256, 16, spec, costs),
                      _overhead(256, 32, spec, costs))
               for name, (spec, costs) in variants.items()}
    rows = [[name, f"{v16:.1f}", f"{v32:.1f}", f"{v32 / v16:.2f}"]
            for name, (v16, v32) in results.items()]
    text = ascii_table(
        ["variant", "16 parts (x)", "32 parts (x)", "32/16 ratio"],
        rows, title="Ablation — socket-spillover spike at 256 B")
    emit("ablation_spillover", text)

    base16, base32 = results["baseline"]
    none16, none32 = results["neither penalty"]
    assert base32 / base16 > 2.5           # spike present
    assert none32 / none16 < 2.5           # spike gone
    assert none32 < base32 / 2
