"""Streaming construction of :class:`PartitionTimeline` objects.

The :class:`TimelineBuilder` sink replaces the runner's post-hoc list
surgery: it consumes the ``bench.*`` phase markers plus ``part.pready``
and ``part.arrived``, and finalizes one
:class:`~repro.metrics.timeline.PartitionTimeline` per iteration the
moment its closing ``bench.recv_complete`` arrives.

Clock convention (matching the paper's Figure 3 side-by-side timelines):
``pready``/``arrival`` times are relative to the partitioned phase's
``bench.part_begin`` anchor; ``join_time`` is relative to
``bench.single_begin``; ``pt2pt_time`` is ``bench.recv_complete`` minus
``bench.send_begin``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import SimulationError
from ..metrics.timeline import PartitionTimeline
from .record import EventRecord
from .schema import EventKind
from .sinks import Sink

__all__ = ["TimelineBuilder"]


def _field(kind: EventKind, values: Tuple, field: str):
    """One named payload value (what :meth:`EventRecord.get` reads)."""
    return values[kind.fields.index(field)]


class _Draft:
    """Mutable per-iteration state while the stream is mid-iteration."""

    __slots__ = ("iteration", "message_bytes", "partitions", "anchor",
                 "pready", "arrival", "single_anchor", "join_abs",
                 "send_start")

    def __init__(self, iteration: int, message_bytes: int,
                 partitions: int, anchor: float):
        self.iteration = iteration
        self.message_bytes = message_bytes
        self.partitions = partitions
        self.anchor = anchor
        self.pready: List[Optional[float]] = [None] * partitions
        self.arrival: List[Optional[float]] = [None] * partitions
        self.single_anchor: Optional[float] = None
        self.join_abs: Optional[float] = None
        self.send_start: Optional[float] = None


class TimelineBuilder(Sink):
    """Builds one :class:`PartitionTimeline` per benchmark iteration.

    Attach with :attr:`PATTERNS`; completed ``(iteration, timeline)``
    pairs accumulate in :attr:`timelines` in iteration order.  A stream
    that violates the benchmark's phase structure (missing markers,
    double timestamps) raises :class:`~repro.errors.SimulationError` —
    a malformed stream must never silently produce a metric.
    """

    #: The subscription this sink needs.
    PATTERNS = ("bench.*", "part.pready", "part.arrived")

    def __init__(self, allow_partial: bool = False) -> None:
        self.timelines: List[Tuple[int, PartitionTimeline]] = []
        self._draft: Optional[_Draft] = None
        #: Fault-tolerant mode (``repro.faults``): an abandoned trial
        #: legitimately ends mid-iteration, so finalize() discards the
        #: open draft instead of raising.  Completed iterations are
        #: still validated strictly.
        self.allow_partial = allow_partial
        #: Iterations discarded by a partial finalize (for reporting).
        self.discarded = 0

    def accept(self, record: EventRecord) -> None:
        """Fold one event into the current iteration's draft."""
        self.accept_raw(record.time, record.kind, record.values)

    def accept_raw(self, time: float, kind: EventKind,
                   values: Tuple) -> None:
        """Record-free form of :meth:`accept` (see ``EventBus.emit``):
        the bus hands over the emission itself, so the builder never
        makes the bus allocate an :class:`EventRecord`."""
        name = kind.name
        if name == "part.pready":
            self._stamp(time, kind, values, "pready")
        elif name == "part.arrived":
            self._stamp(time, kind, values, "arrival")
        elif name == "bench.part_begin":
            if self._draft is not None:
                raise SimulationError(
                    f"bench.part_begin for iteration "
                    f"{_field(kind, values, 'iteration')} while iteration "
                    f"{self._draft.iteration} is still open")
            self._draft = _Draft(_field(kind, values, "iteration"),
                                 _field(kind, values, "message_bytes"),
                                 _field(kind, values, "partitions"), time)
        elif name == "bench.single_begin":
            self._require(kind).single_anchor = time
        elif name == "bench.join":
            self._require(kind).join_abs = time
        elif name == "bench.send_begin":
            self._require(kind).send_start = time
        elif name == "bench.recv_complete":
            self._finish(time, kind)

    def finalize(self) -> None:
        """Verify the stream closed its last iteration."""
        if self._draft is not None:
            if self.allow_partial:
                self.discarded += 1
                self._draft = None
                return
            raise SimulationError(
                f"event stream ended with iteration "
                f"{self._draft.iteration} still open (no "
                f"bench.recv_complete)")

    def _require(self, kind: EventKind) -> _Draft:
        if self._draft is None:
            raise SimulationError(
                f"{kind.name} outside a benchmark iteration "
                f"(no bench.part_begin seen)")
        return self._draft

    def _stamp(self, time: float, kind: EventKind, values: Tuple,
               which: str) -> None:
        draft = self._require(kind)
        partition = _field(kind, values, "partition")
        slots = getattr(draft, which)
        if not (0 <= partition < draft.partitions):
            raise SimulationError(
                f"{kind.name} names partition {partition} outside "
                f"[0, {draft.partitions})")
        if slots[partition] is not None:
            raise SimulationError(
                f"duplicate {kind.name} for partition {partition} "
                f"in iteration {draft.iteration}")
        slots[partition] = time

    def _finish(self, time: float, kind: EventKind) -> None:
        draft = self._require(kind)
        missing = [
            label for label, value in (
                ("single_anchor", draft.single_anchor),
                ("join", draft.join_abs),
                ("send_begin", draft.send_start),
            ) if value is None
        ]
        for which in ("pready", "arrival"):
            if any(t is None for t in getattr(draft, which)):
                missing.append(which)
        if missing:
            raise SimulationError(
                f"iteration {draft.iteration} closed with incomplete "
                f"timeline data: missing {', '.join(missing)}")
        timeline = PartitionTimeline(
            message_bytes=draft.message_bytes,
            pready_times=[t - draft.anchor for t in draft.pready],
            arrival_times=[t - draft.anchor for t in draft.arrival],
            join_time=draft.join_abs - draft.single_anchor,
            pt2pt_time=time - draft.send_start,
        )
        self.timelines.append((draft.iteration, timeline))
        self._draft = None
