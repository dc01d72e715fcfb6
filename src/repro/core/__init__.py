"""The MPI Partitioned micro-benchmark suite — the paper's contribution.

Layers:

* :class:`PtpBenchmarkConfig` + :func:`run_ptp_benchmark` — one cell of the
  parameter space, measured per the paper's Figure 3 procedure.
* :func:`sweep_ptp` / :class:`SweepResult` — grids over message size ×
  partition count.
* :mod:`~repro.core.parallel` — the sweep execution engine: fan-out over
  a persistent :mod:`~repro.core.pool` of warm workers plus a
  content-addressed result cache, bit-identical to serial.
* :data:`~repro.core.suite.FIGURES` — the paper's Figures 4–13, each
  defined once: a driver and a renderer (suite module).
* :func:`recommend_partitions` — the developer-guidance advisor.
* :mod:`~repro.core.report` — the text tables the harness prints.
"""

from .compare import Drift, compare_sweeps, drift_table, gate_sweeps
from .config import (COLD, HOT, PAPER_MESSAGE_SIZES, PAPER_PARTITION_COUNTS,
                     PtpBenchmarkConfig)
from .guidance import OBJECTIVES, Recommendation, recommend_partitions
from .parallel import (ANALYTIC_MODES, CACHE_SCHEMA_VERSION,
                       FINGERPRINT_VERSION, ResultCache, SweepStats,
                       config_fingerprint, derive_cell_seed, plan_cells,
                       run_cells)
from .pool import (PoolRunStats, PoolTaskError, WorkerPool, shared_pool,
                   shutdown_shared_pool)
from .report import (METRIC_FORMATS, ascii_table, fault_table, format_bytes,
                     format_seconds, metric_table, provenance_line,
                     series_table)
from .runner import PtpResult, PtpSample, run_ptp_benchmark, run_ptp_trial
from .suite import (QUICK_MESSAGE_SIZES, QUICK_PARTITION_COUNTS,
                    fig4_overhead, fig5_perceived_bandwidth,
                    fig6_availability, fig7_noise_models, fig8_early_bird)
from .sweep import METRIC_NAMES, SweepPoint, SweepResult, sweep_ptp
from .wire import WIRE_VERSION, WireError, decode_result, encode_result

__all__ = [
    "COLD",
    "HOT",
    "PAPER_MESSAGE_SIZES",
    "PAPER_PARTITION_COUNTS",
    "PtpBenchmarkConfig",
    "Drift",
    "compare_sweeps",
    "drift_table",
    "gate_sweeps",
    "ANALYTIC_MODES",
    "CACHE_SCHEMA_VERSION",
    "FINGERPRINT_VERSION",
    "OBJECTIVES",
    "Recommendation",
    "recommend_partitions",
    "ResultCache",
    "SweepStats",
    "config_fingerprint",
    "derive_cell_seed",
    "plan_cells",
    "run_cells",
    "PoolRunStats",
    "PoolTaskError",
    "WorkerPool",
    "shared_pool",
    "shutdown_shared_pool",
    "METRIC_FORMATS",
    "ascii_table",
    "fault_table",
    "format_bytes",
    "format_seconds",
    "metric_table",
    "provenance_line",
    "series_table",
    "PtpResult",
    "PtpSample",
    "run_ptp_benchmark",
    "run_ptp_trial",
    "QUICK_MESSAGE_SIZES",
    "QUICK_PARTITION_COUNTS",
    "fig4_overhead",
    "fig5_perceived_bandwidth",
    "fig6_availability",
    "fig7_noise_models",
    "fig8_early_bird",
    "METRIC_NAMES",
    "SweepPoint",
    "SweepResult",
    "sweep_ptp",
    "WIRE_VERSION",
    "WireError",
    "decode_result",
    "encode_result",
]
