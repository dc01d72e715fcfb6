"""Benchmark configuration for the point-to-point micro-benchmarks.

One :class:`PtpBenchmarkConfig` describes a single cell of the paper's
parameter space: message size × partition count × compute amount × noise
model × cache mode, plus substrate overrides for the ablation benches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

from ..errors import ConfigurationError
from ..machine import MachineSpec, NIAGARA_NODE
from ..mpi import DEFAULT_COSTS, MPICosts, ThreadingMode
from ..network import NIAGARA_EDR, NetworkParams
from ..noise import NoNoise, NoiseModel

__all__ = ["PtpBenchmarkConfig", "HOT", "COLD",
           "PAPER_MESSAGE_SIZES", "PAPER_PARTITION_COUNTS"]

#: Cache modes (§3.4).
HOT = "hot"
COLD = "cold"

#: Message sizes covering the paper's figures: 64 B – 16 MiB.
PAPER_MESSAGE_SIZES: Tuple[int, ...] = tuple(
    64 * 4 ** k for k in range(10))  # 64 B ... 16 MiB

#: Partition counts of Figures 4–8 (one thread per partition).
PAPER_PARTITION_COUNTS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)

#: Longest nominal trial, in simulated seconds.  Below 2**22 s the
#: float64 clock's step stays under 1 ns, so a microsecond transfer
#: never rounds to zero against the absolute time.
MAX_SPAN_SECONDS = float(2 ** 22)

#: Most partition-iterations (``total_iterations x partitions``) one
#: trial may simulate.  The span bound says nothing when compute is 0,
#: and DES events per iteration grow with the partition count; at about
#: 0.1-1 ms of host time each, this caps a trial near a minute.
MAX_PARTITION_ITERATIONS = 2 ** 16


@dataclass(frozen=True)
class PtpBenchmarkConfig:
    """One point of the micro-benchmark parameter space.

    Attributes
    ----------
    message_bytes:
        Total message size ``m``; partitions are ``m / partitions`` each.
    partitions:
        Partition count = thread count (one thread per partition, §2.1).
    compute_seconds:
        Nominal per-thread compute ``comp`` (the paper uses 10 ms / 100 ms).
    noise:
        Injected-noise model (§3.3).
    cache:
        ``"hot"`` (buffers stay resident) or ``"cold"`` (invalidate every
        iteration, §3.4).
    iterations / warmup:
        Measured and discarded iteration counts.
    seed:
        Master seed for noise streams.
    mode / spec / inter_node / costs:
        Substrate configuration, defaulting to the Niagara calibration.
    """

    message_bytes: int
    partitions: int
    #: Partitions each thread owns (the paper uses 1:1; MPI allows more —
    #: §2.1 "one or more partitions can be assigned to each thread").
    #: ``partitions`` must be a multiple; the team size is
    #: ``partitions // partitions_per_thread``.
    partitions_per_thread: int = 1
    compute_seconds: float = 0.010
    noise: NoiseModel = field(default_factory=NoNoise)
    cache: str = HOT
    iterations: int = 5
    warmup: int = 1
    seed: int = 0
    mode: ThreadingMode = ThreadingMode.MULTIPLE
    spec: MachineSpec = NIAGARA_NODE
    inter_node: NetworkParams = NIAGARA_EDR
    costs: MPICosts = DEFAULT_COSTS

    def __post_init__(self) -> None:
        if self.message_bytes < 1:
            raise ConfigurationError(
                f"message_bytes must be >= 1: {self.message_bytes}")
        if self.partitions < 1:
            raise ConfigurationError(
                f"partitions must be >= 1: {self.partitions}")
        if self.message_bytes < self.partitions:
            raise ConfigurationError(
                f"{self.partitions} partitions need at least that many "
                f"bytes, got {self.message_bytes}")
        if not (math.isfinite(self.compute_seconds)
                and self.compute_seconds >= 0):
            raise ConfigurationError(
                f"compute_seconds must be finite and >= 0: "
                f"{self.compute_seconds}")
        if self.cache not in (HOT, COLD):
            raise ConfigurationError(
                f"cache must be '{HOT}' or '{COLD}': {self.cache!r}")
        if self.iterations < 1:
            raise ConfigurationError(
                f"iterations must be >= 1: {self.iterations}")
        if self.warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0: {self.warmup}")
        if self.partitions_per_thread < 1:
            raise ConfigurationError(
                f"partitions_per_thread must be >= 1: "
                f"{self.partitions_per_thread}")
        if self.partitions % self.partitions_per_thread != 0:
            raise ConfigurationError(
                f"partitions ({self.partitions}) must be a multiple of "
                f"partitions_per_thread ({self.partitions_per_thread})")
        if self.total_iterations * self.partitions > MAX_PARTITION_ITERATIONS:
            raise ConfigurationError(
                f"{self.total_iterations} iterations x {self.partitions} "
                f"partitions exceeds {MAX_PARTITION_ITERATIONS} "
                f"partition-iterations per trial")
        # Per-iteration compute at its noisiest nominal value; the int
        # side of the comparison stays exact for any iteration count.
        per_iteration = self.compute_seconds * (
            1.0 + getattr(self.noise, "fraction", 0.0))
        if (per_iteration
                and self.total_iterations > MAX_SPAN_SECONDS / per_iteration):
            raise ConfigurationError(
                f"nominal span of {self.total_iterations} iterations x "
                f"{per_iteration:g} s exceeds 2**22 s: the simulated "
                f"clock could no longer resolve a nanosecond")

    @property
    def threads(self) -> int:
        """Team size: one thread per ``partitions_per_thread`` partitions."""
        return self.partitions // self.partitions_per_thread

    @property
    def total_iterations(self) -> int:
        """Warmup plus measured iterations."""
        return self.warmup + self.iterations

    @property
    def is_deterministic(self) -> bool:
        """True when every trial of this cell is bit-identical.

        A noise model that hands every thread exactly
        ``compute_seconds``: :class:`~repro.noise.NoNoise`, or any
        percent-parameterised model dialled to 0% (the sweeps' noise
        axes start at 0).  Deterministic cells need one trial — and are
        the candidates for the :mod:`repro.analytic` fast path.
        """
        return (isinstance(self.noise, NoNoise)
                or getattr(self.noise, "noise_percent", None) == 0)

    def with_overrides(self, **kwargs) -> "PtpBenchmarkConfig":
        """Copy with fields replaced (sweeps and ablations)."""
        return replace(self, **kwargs)

    def label(self) -> str:
        """Compact description used in reports."""
        return (f"m={self.message_bytes}B n={self.partitions} "
                f"comp={self.compute_seconds * 1e3:g}ms "
                f"noise={self.noise.describe()} cache={self.cache}")
