"""Partition-transfer timelines — the raw material of the paper's metrics.

A :class:`PartitionTimeline` records, for one measured iteration, when each
partition was marked ready (``MPI_Pready``) and when it arrived at the
receiver (``MPI_Parrived`` observable), plus the equivalent single-send
model's thread-join time and one-send duration.  The four §3.1 metrics are
all pure functions of this record (see :mod:`repro.metrics.definitions`),
mirroring the paper's Figure 3.

The two timestamp fields are ``array('d')``: raw binary64 doubles, not a
list of boxed floats.  A kept result stores no timeline object at all:
its packed record (:class:`~repro.core.runner.PtpResult`) holds the raw
fields, validated by :func:`check_timeline`, and builds timelines as
views on access.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import lt
from typing import List, Sequence

from ..errors import ConfigurationError

__all__ = ["PartitionTimeline", "check_timeline"]


def check_timeline(message_bytes: int, pready_times: Sequence[float],
                   arrival_times: Sequence[float],
                   pt2pt_time: float) -> None:
    """Raise :class:`ConfigurationError` unless the fields make a valid
    timeline: as many arrivals as preadys (at least one), a positive size
    and ``t_pt2pt``, and no partition arriving before its pready."""
    if len(pready_times) != len(arrival_times):
        raise ConfigurationError(
            f"{len(pready_times)} pready vs "
            f"{len(arrival_times)} arrival timestamps")
    if not pready_times:
        raise ConfigurationError("timeline needs at least one partition")
    if message_bytes <= 0:
        raise ConfigurationError("message_bytes must be positive")
    if pt2pt_time <= 0:
        raise ConfigurationError("pt2pt_time must be positive")
    if any(map(lt, arrival_times, pready_times)):
        p, a = next((p, a) for p, a in zip(pready_times, arrival_times)
                    if a < p)
        raise ConfigurationError(
            f"partition arrived at {a} before its pready at {p}")


@dataclass(frozen=True, slots=True)
class PartitionTimeline:
    """One iteration's timestamps (all in simulated seconds).

    Attributes
    ----------
    message_bytes:
        Total message size ``m`` (all partitions together).
    pready_times:
        ``pready_times[i]`` — when partition ``i`` was marked ready.
        Any float sequence is accepted and stored as ``array('d')``
        (an ``array('d')`` is kept as given, not copied).
    arrival_times:
        ``arrival_times[i]`` — when partition ``i`` became visible to
        ``MPI_Parrived`` at the receiver; stored like ``pready_times``.
    join_time:
        When the *equivalent single-send model's* threads joined (the
        reference point for availability and early-bird, §3.1.3–3.1.4).
    pt2pt_time:
        Duration of the equivalent single send/receive of ``m`` bytes
        (``t_pt2pt`` in the paper: send start to receive completion).
    """

    message_bytes: int
    pready_times: Sequence[float]
    arrival_times: Sequence[float]
    join_time: float
    pt2pt_time: float

    def __post_init__(self) -> None:
        for name in ("pready_times", "arrival_times"):
            times = getattr(self, name)
            if not (isinstance(times, array) and times.typecode == "d"):
                object.__setattr__(self, name, array("d", times))
        check_timeline(self.message_bytes, self.pready_times,
                       self.arrival_times, self.pt2pt_time)

    @property
    def partitions(self) -> int:
        """Partition count ``n``."""
        return len(self.pready_times)

    @property
    def first_pready(self) -> float:
        """Timestamp of the first ``MPI_Pready``."""
        return min(self.pready_times)

    @property
    def last_arrival(self) -> float:
        """Timestamp of the last partition arrival."""
        return max(self.arrival_times)

    @property
    def t_part(self) -> float:
        """§3.1.1: first ``MPI_Pready`` → last ``MPI_Parrived``."""
        return self.last_arrival - self.first_pready

    @property
    def last_transfer_time(self) -> float:
        """§3.1.2: duration of the transfer that *finishes last*.

        The "Thread #4 data transfer" of Figure 3: from that partition's
        pready to its arrival, including any queueing behind earlier
        partitions still on the wire.
        """
        arrival = self.arrival_times
        idx = max(range(len(arrival)), key=arrival.__getitem__)
        return arrival[idx] - self.pready_times[idx]

    @property
    def t_after_join(self) -> float:
        """§3.1.3: how long partitioned traffic continues past the join."""
        return max(0.0, self.last_arrival - self.join_time)

    @property
    def t_before_join(self) -> float:
        """§3.1.4: wall-clock partitioned-communication time before the
        equivalent join.

        The overlap of the communication window
        ``[first_pready, last_arrival]`` with ``(-inf, join_time]``.  The
        paper sums per-transfer segments along its (serialized) send
        timeline; with transfers serialized on one NIC the two readings
        coincide, and the overlap form stays well-defined when transfers
        overlap.
        """
        return max(0.0, min(self.last_arrival, self.join_time)
                   - self.first_pready)

    def transfer_durations(self) -> List[float]:
        """Per-partition pready→arrival durations (diagnostics)."""
        return [a - p for p, a in zip(self.pready_times,
                                      self.arrival_times)]
