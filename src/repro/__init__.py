"""repro — a micro-benchmark suite for MPI Partitioned communication.

A faithful, fully self-contained reproduction of

    Temuçin, Grant, Afsahi.  *Micro-Benchmarking MPI Partitioned
    Point-to-Point Communication.*  ICPP 2022.

built on a deterministic discrete-event simulation of an HPC cluster
(machine + network + MPI runtime + MPI 4.0 partitioned communication), so
every figure of the paper can be regenerated on a laptop.

Quick start
-----------
>>> from repro import PtpBenchmarkConfig, run_ptp_benchmark
>>> from repro.noise import UniformNoise
>>> cfg = PtpBenchmarkConfig(message_bytes=1 << 20, partitions=8,
...                          compute_seconds=0.010, noise=UniformNoise(4.0),
...                          iterations=3)
>>> result = run_ptp_benchmark(cfg)
>>> 0 < result.overhead.mean < 100
True

Package map
-----------
``repro.sim``
    Discrete-event kernel (events, processes, resources, RNG, traces).
``repro.machine`` / ``repro.network``
    Niagara-calibrated node and EDR-InfiniBand path models.
``repro.mpi`` / ``repro.partitioned``
    The simulated MPI runtime and the MPI 4.0 partitioned API
    (layered over point-to-point, as MPIPCL is).
``repro.threadsim`` / ``repro.noise``
    OpenMP-style thread teams and the paper's §3.3 noise models.
``repro.metrics`` / ``repro.core``
    The §3.1 metrics and the micro-benchmark suite (runner, sweeps,
    per-figure drivers, reports, partition-count advisor).
``repro.patterns`` / ``repro.proxy``
    Sweep3D / Halo3D motifs (Figures 9–12) and the SNAP projection
    (Figure 13).
"""

from .core import (
    PtpBenchmarkConfig,
    PtpResult,
    Recommendation,
    SweepResult,
    metric_table,
    recommend_partitions,
    run_ptp_benchmark,
    sweep_ptp,
)
from .errors import (
    ConfigurationError,
    DeadlockError,
    MPIError,
    PartitionError,
    ReproError,
    RequestStateError,
    SimulationError,
    ThreadingModeError,
    TruncationError,
)
from .mpi import Cluster, MPICosts, ThreadingMode

__version__ = "1.0.0"

__all__ = [
    "PtpBenchmarkConfig",
    "PtpResult",
    "Recommendation",
    "SweepResult",
    "metric_table",
    "recommend_partitions",
    "run_ptp_benchmark",
    "sweep_ptp",
    "ConfigurationError",
    "DeadlockError",
    "MPIError",
    "PartitionError",
    "ReproError",
    "RequestStateError",
    "SimulationError",
    "ThreadingModeError",
    "TruncationError",
    "Cluster",
    "MPICosts",
    "ThreadingMode",
    "__version__",
]
