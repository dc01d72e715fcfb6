"""The event bus: per-kind sink dispatch with a near-zero disabled path.

Each :class:`EventBus` keeps one sink list per registered kind, indexed
by the kind's interned integer id.  :meth:`EventBus.emit` therefore costs
one list index and one falsy test when nothing subscribes to that kind —
the guarantee the ``obs_emission_disabled`` kernel of
``scripts/bench_guard.py`` holds to 1.05x its time at the baseline
commit.

Sinks subscribe with kind patterns (``"part.*"``, ``"*"``) resolved
through the schema; records are delivered in emission order, which is the
total order every exporter and digest preserves.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .record import EventRecord
from .schema import SCHEMA, EventKind, EventSchema
from .sinks import MemorySink, Sink

__all__ = ["EventBus"]

#: Truthy marker stored in ``EventBus._raw_by_kind`` when at least one of
#: a kind's sinks needs a built :class:`EventRecord`.  Falsy entries mean
#: "no subscribers", so the disabled emit path stays a single index plus
#: one falsy test.
_RECORD_PATH = ("record-path",)


class EventBus:
    """Dispatches :class:`~repro.obs.record.EventRecord` to subscribed sinks."""

    __slots__ = ("schema", "_by_kind", "_raw_by_kind", "_subs")

    def __init__(self, schema: Optional[EventSchema] = None) -> None:
        self.schema = schema if schema is not None else SCHEMA
        self._by_kind: List[List[Sink]] = [[] for _ in
                                           range(len(self.schema))]
        # Per kind: tuple of bound ``accept_raw`` methods when *every*
        # subscriber supports the record-free path (empty tuple = no
        # subscribers), or the _RECORD_PATH marker when at least one sink
        # needs a built EventRecord.  Kept in lockstep with _by_kind by
        # _refresh_raw.
        self._raw_by_kind: List[tuple] = [() for _ in
                                          range(len(self.schema))]
        self._subs: List[Tuple[Sink, Tuple[EventKind, ...]]] = []

    def attach(self, sink: Sink, patterns=("*",)) -> Sink:
        """Subscribe ``sink`` to every kind matching ``patterns``.

        Returns the sink, so ``builder = bus.attach(TimelineBuilder(...))``
        reads naturally.  Unknown patterns raise
        :class:`~repro.errors.ConfigurationError`.
        """
        kinds = tuple(self.schema.resolve(patterns))
        for kind in kinds:
            self._ensure(kind.id).append(sink)
            self._refresh_raw(kind.id)
        self._subs.append((sink, kinds))
        return sink

    def detach(self, sink: Sink) -> None:
        """Unsubscribe ``sink`` from every kind it was attached to."""
        for recorded, kinds in self._subs:
            if recorded is sink:
                for kind in kinds:
                    lst = self._ensure(kind.id)
                    while sink in lst:
                        lst.remove(sink)
                    self._refresh_raw(kind.id)
        self._subs = [(s, k) for s, k in self._subs if s is not sink]

    def _refresh_raw(self, kind_id: int) -> None:
        """Recompute the raw-dispatch entry for one kind."""
        raws = []
        for sink in self._by_kind[kind_id]:
            fn = getattr(sink, "accept_raw", None)
            if fn is None:
                self._raw_by_kind[kind_id] = _RECORD_PATH
                return
            raws.append(fn)
        self._raw_by_kind[kind_id] = tuple(raws)

    def record(self, *patterns: str) -> MemorySink:
        """Attach and return a fresh :class:`MemorySink` for ``patterns``.

        The one-liner for tests and ad-hoc inspection::

            mem = bus.record("part.*")
        """
        return self.attach(MemorySink(), patterns or ("*",))

    def subscribed(self, kind: EventKind) -> bool:
        """True when at least one sink listens to ``kind``."""
        return (kind.id < len(self._by_kind)
                and bool(self._by_kind[kind.id]))

    def emit(self, kind: EventKind, time: float, *values) -> None:
        """Deliver one event to the sinks subscribed to ``kind``.

        The disabled fast path — no subscriber for this kind — is a list
        index plus a falsy check.  When every subscriber implements
        ``accept_raw`` (e.g. a lone :class:`~repro.obs.sinks.DigestSink`),
        the payload is handed over as ``(time, kind, values)`` and no
        :class:`EventRecord` is allocated; otherwise the record object is
        built once and shared by every sink.
        """
        try:
            raw = self._raw_by_kind[kind.id]
        except IndexError:
            # Kind registered after this bus was built; nothing can have
            # subscribed to it yet.
            self._ensure(kind.id)
            return
        if not raw:
            return
        if raw is not _RECORD_PATH:
            for fn in raw:
                fn(time, kind, values)
            return
        record = EventRecord(time, kind, values)
        for sink in self._by_kind[kind.id]:
            sink.accept(record)

    def finalize(self) -> None:
        """Tell every attached sink the stream is complete, then detach all.

        A finished stream's bus holds no sink, so a sink that refers
        back to the run it watched (and through it to this bus) forms no
        reference cycle with it.
        """
        seen = []
        for sink, _ in self._subs:
            if any(sink is s for s in seen):
                continue
            seen.append(sink)
            sink.finalize()
        self._by_kind = [[] for _ in self._by_kind]
        self._raw_by_kind = [() for _ in self._raw_by_kind]
        self._subs = []

    def _ensure(self, kind_id: int) -> List[Sink]:
        while len(self._by_kind) <= kind_id:
            self._by_kind.append([])
            self._raw_by_kind.append(())
        return self._by_kind[kind_id]
