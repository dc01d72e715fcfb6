"""The four micro-benchmark metrics of §3.1, as pure functions + a bundle.

Each function implements one numbered equation of the paper:

* :func:`overhead` — Eq. (1): ``t_part / t_pt2pt``.
* :func:`perceived_bandwidth` — Eq. (2): ``m / t_part_last``.
* :func:`application_availability` — Eq. (3): ``1 - t_after_join/t_pt2pt``.
* :func:`early_bird_fraction` — Eq. (4): ``t_before_join / t_part``.

:class:`PtpMetrics` evaluates all four on a
:class:`~repro.metrics.timeline.PartitionTimeline`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .timeline import PartitionTimeline

__all__ = ["overhead", "perceived_bandwidth", "application_availability",
           "early_bird_fraction", "PtpMetrics"]


def overhead(t_part: float, t_pt2pt: float) -> float:
    """Eq. (1): slowdown of ``n`` partition transfers vs one send of ``m``.

    ~1 for one partition or large messages; grows with partition count for
    latency-bound sizes.
    """
    if t_pt2pt <= 0:
        raise ConfigurationError(f"t_pt2pt must be positive: {t_pt2pt}")
    if t_part < 0:
        raise ConfigurationError(f"t_part must be non-negative: {t_part}")
    return t_part / t_pt2pt


def perceived_bandwidth(message_bytes: int, t_part_last: float) -> float:
    """Eq. (2): bandwidth a single-send model would need to match the
    partitioned finish time, in bytes/second.

    Exceeds physical link bandwidth when early partitions ship while late
    threads still compute — that headroom is the point of the metric.
    """
    if message_bytes <= 0:
        raise ConfigurationError(
            f"message_bytes must be positive: {message_bytes}")
    if t_part_last <= 0:
        raise ConfigurationError(
            f"t_part_last must be positive: {t_part_last}")
    return message_bytes / t_part_last


def application_availability(t_after_join: float, t_pt2pt: float) -> float:
    """Eq. (3): fraction of the single-send time handed back to the CPU.

    1.0 means every partition arrived before the equivalent thread join
    (the CPU never waits on communication); values fall toward 0 — and can
    go negative — when partitioned traffic drags on long after the join.
    """
    if t_pt2pt <= 0:
        raise ConfigurationError(f"t_pt2pt must be positive: {t_pt2pt}")
    if t_after_join < 0:
        raise ConfigurationError(
            f"t_after_join must be non-negative: {t_after_join}")
    return 1.0 - t_after_join / t_pt2pt


def early_bird_fraction(t_before_join: float, t_part: float) -> float:
    """Eq. (4): fraction of partitioned communication that happened before
    the equivalent thread join, in [0, 1].

    Asymptotically approaches (but per the paper never exactly reaches) 1;
    ~0 means the implementation provides no early-bird capability.
    """
    if t_part < 0:
        raise ConfigurationError(f"t_part must be non-negative: {t_part}")
    if t_before_join < 0:
        raise ConfigurationError(
            f"t_before_join must be non-negative: {t_before_join}")
    if t_part == 0.0:
        return 0.0
    frac = t_before_join / t_part
    if frac > 1.0 + 1e-9:
        raise ConfigurationError(
            f"t_before_join {t_before_join} exceeds t_part {t_part}")
    return min(frac, 1.0)


@dataclass(frozen=True, slots=True)
class PtpMetrics:
    """All four §3.1 metrics for one measured iteration."""

    overhead: float
    perceived_bandwidth: float
    application_availability: float
    early_bird_fraction: float

    @classmethod
    def from_timeline(cls, tl: PartitionTimeline) -> "PtpMetrics":
        """Evaluate Eqs. (1)–(4) on one timeline."""
        return cls(
            overhead=overhead(tl.t_part, tl.pt2pt_time),
            perceived_bandwidth=perceived_bandwidth(
                tl.message_bytes, tl.last_transfer_time),
            application_availability=application_availability(
                tl.t_after_join, tl.pt2pt_time),
            early_bird_fraction=early_bird_fraction(
                tl.t_before_join, tl.t_part),
        )
