"""Shared machinery for the Ember-style communication-pattern motifs.

The paper adapts two motifs from SST/Ember (§3.2): Sweep3D (a KBA wavefront)
and Halo3D (a 7-point halo exchange), each in three communication modes:

* ``SINGLE`` — one thread per rank, whole-message point-to-point;
* ``MULTI`` — one thread per partition, each doing its own point-to-point
  under ``MPI_THREAD_MULTIPLE``;
* ``PARTITIONED`` — one thread per partition calling ``MPI_Pready`` on a
  persistent partitioned transfer.

Per the paper's §4.1 methodology: data is weak-scaled (every rank handles
``message_bytes`` per neighbor regardless of thread count) while compute is
strong-scaled (every thread computes the same nominal amount, so wall
compute time stays ~constant as threads grow).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List

from ..errors import ConfigurationError
from ..machine import MachineSpec, NIAGARA_NODE
from ..metrics import SampleSummary, summarize
from ..mpi import DEFAULT_COSTS, MPICosts
from ..network import NIAGARA_EDR, NetworkParams
from ..noise import NoiseModel, SingleThreadNoise

__all__ = ["CommMode", "PatternConfig", "PatternRunResult"]


class CommMode(enum.Enum):
    """Communication mode of a motif run."""

    SINGLE = "single"
    MULTI = "multi"
    PARTITIONED = "partitioned"


def _default_noise() -> NoiseModel:
    # The pattern figures all use the 4% single-thread delay model.
    return SingleThreadNoise(4.0)


@dataclass(frozen=True)
class PatternConfig:
    """One motif run's parameters.

    Attributes
    ----------
    mode:
        Communication mode (see :class:`CommMode`).
    threads:
        Threads per rank (= partitions per transfer in MULTI/PARTITIONED;
        ignored by SINGLE, which uses one).
    message_bytes:
        Bytes exchanged with each neighbour per step (weak-scaled).
    compute_seconds:
        Nominal per-thread compute per step (strong-scaled).
    noise:
        Injected-noise model applied to every compute phase.
    steps:
        Motif steps (wavefront diagonals / halo iterations) per iteration.
    iterations / warmup:
        Measured and discarded repetitions of the whole motif.
    """

    mode: CommMode
    threads: int = 4
    message_bytes: int = 1 << 20
    compute_seconds: float = 0.010
    noise: NoiseModel = field(default_factory=_default_noise)
    steps: int = 4
    iterations: int = 3
    warmup: int = 1
    seed: int = 0
    spec: MachineSpec = NIAGARA_NODE
    inter_node: NetworkParams = NIAGARA_EDR
    costs: MPICosts = DEFAULT_COSTS

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigurationError(f"threads must be >= 1: {self.threads}")
        if self.message_bytes < max(1, self.threads):
            raise ConfigurationError(
                f"message_bytes {self.message_bytes} too small for "
                f"{self.threads} partitions")
        if self.compute_seconds < 0:
            raise ConfigurationError("compute_seconds must be >= 0")
        if self.steps < 1 or self.iterations < 1 or self.warmup < 0:
            raise ConfigurationError(
                "steps/iterations must be >= 1, warmup >= 0")

    @property
    def worker_threads(self) -> int:
        """Actual team size for this mode (SINGLE runs one thread)."""
        return 1 if self.mode is CommMode.SINGLE else self.threads

    @property
    def total_iterations(self) -> int:
        """Warmup plus measured iterations."""
        return self.warmup + self.iterations

    def with_overrides(self, **kwargs) -> "PatternConfig":
        """Copy with fields replaced."""
        return replace(self, **kwargs)


@dataclass
class PatternRunResult:
    """Throughput measurements of one motif run.

    ``bytes_per_iteration`` counts every byte any rank handed to its NIC
    for motif traffic.  The headline number is *communication throughput*
    (the quantity the paper's Figures 9–12 plot): volume divided by the
    iteration's communication time — wall-clock span minus the motif's
    compute critical path, i.e. the time the pattern spends communicating
    or stalled on communication rather than computing.  Wall-clock
    throughput is also exposed for completeness.
    """

    config: PatternConfig
    nranks: int
    bytes_per_iteration: int
    #: Compute on the motif's critical path per iteration (supplied by the
    #: motif runner; e.g. pipeline-fill + steps for a wavefront).
    compute_critical_path: float = 0.0
    elapsed: List[float] = field(default_factory=list)

    def comm_times(self) -> List[float]:
        """Per-iteration communication time (never below 1 ns)."""
        if not self.elapsed:
            raise ConfigurationError("no measured iterations")
        return [max(e - self.compute_critical_path, 1e-9)
                for e in self.elapsed]

    @property
    def throughput(self) -> SampleSummary:
        """Communication throughput (bytes/second) across iterations."""
        return summarize([self.bytes_per_iteration / t
                          for t in self.comm_times()])

    @property
    def wall_throughput(self) -> SampleSummary:
        """Whole-iteration (compute included) bytes/second."""
        if not self.elapsed:
            raise ConfigurationError("no measured iterations")
        return summarize([self.bytes_per_iteration / e
                          for e in self.elapsed])

    @property
    def mean_throughput(self) -> float:
        """Convenience accessor for the headline number."""
        return self.throughput.mean
