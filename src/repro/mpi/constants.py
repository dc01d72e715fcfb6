"""MPI constants and cost parameters for the simulated runtime."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..errors import ConfigurationError

__all__ = ["ThreadingMode", "MPICosts", "DEFAULT_COSTS", "validate_costs"]


class ThreadingMode(enum.Enum):
    """The three MPI threading modes discussed in the paper's §1.

    FUNNELED
        Only the main thread (thread id 0) may call MPI.
    SERIALIZED
        Any thread may call MPI, but never two concurrently; the simulated
        runtime *verifies* this and raises on violations.
    MULTIPLE
        Concurrent calls allowed; every call serializes on the library lock,
        reproducing the contention that motivates partitioned communication.
    """

    FUNNELED = "funneled"
    SERIALIZED = "serialized"
    MULTIPLE = "multiple"


@dataclass(frozen=True)
class MPICosts:
    """CPU-side cost parameters of the simulated MPI library.

    These model the software path lengths of an Open MPI/UCX-class library;
    the relative magnitudes (not absolute values) drive the paper's shapes.

    Attributes
    ----------
    call_overhead:
        Fixed CPU cost to enter+exit any MPI call.
    post_cost:
        Cost to append an entry to a matching queue.
    lock_hold:
        Length of the library critical section under ``MULTIPLE``; the lock
        is held for this long per call, so concurrent callers queue.
    lock_remote_penalty:
        Extra lock cost when the calling thread sits on a socket other than
        the NIC's (lock cache line bounces across the UPI link).  Drives the
        32-partition spillover spike of Fig. 4.
    pready_cost:
        CPU cost of ``MPI_Pready`` in the layered (MPIPCL) implementation —
        an internal ``MPI_Isend`` on a pre-matched request, cheaper than a
        full send but still lock-protected.
    parrived_cost:
        CPU cost of ``MPI_Parrived`` — a flag check, no lock.
    partitioned_setup:
        One-time cost of ``MPI_Psend_init``/``MPI_Precv_init`` (metadata
        exchange happens here, in the serial part of the code).
    start_cost:
        Cost of ``MPI_Start`` on a persistent or partitioned request, plus
        ``start_cost_per_partition`` for each internal request re-armed.
    start_cost_per_partition:
        Per-partition component of ``MPI_Start`` (MPIPCL re-posts one
        internal receive per partition).
    progress_contention:
        Progress-engine slowdown per thread spin-waiting inside an MPI call
        under ``MULTIPLE``: frame handling costs are multiplied by
        ``1 + progress_contention * blocked_waiters``.  Models polling
        threads bouncing the progress lock (Amer et al. [6]); partitioned
        receivers poll with lock-free ``MPI_Parrived`` and so do not
        contribute.
    """

    call_overhead: float = 0.15e-6
    post_cost: float = 0.10e-6
    lock_hold: float = 0.25e-6
    lock_remote_penalty: float = 3.5e-6
    pready_cost: float = 0.60e-6
    parrived_cost: float = 0.05e-6
    partitioned_setup: float = 2.0e-6
    start_cost: float = 0.10e-6
    start_cost_per_partition: float = 0.05e-6
    progress_contention: float = 4.0

    def with_overrides(self, **kwargs) -> "MPICosts":
        """Copy with fields replaced — used by the lock ablation."""
        return replace(self, **kwargs)


def validate_costs(costs: MPICosts) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` on negative costs."""
    for name in costs.__dataclass_fields__:
        if getattr(costs, name) < 0:
            raise ConfigurationError(f"MPI cost {name} must be >= 0")


#: Default cost preset, calibrated so figure shapes match the paper.
DEFAULT_COSTS = MPICosts()
