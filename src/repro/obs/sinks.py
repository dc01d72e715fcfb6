"""Built-in sinks: memory capture, counters/histograms, stream digests.

A sink is anything with ``accept(record)`` (called once per subscribed
event, in emission order) and ``finalize()`` (called when the stream
ends).  The streaming :class:`~repro.obs.timeline.TimelineBuilder` and
the dynamic checker (:class:`repro.analysis.checker.Checker`) are sinks
too; this module holds the generic ones.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .record import EventRecord

__all__ = ["Sink", "MemorySink", "CounterSink", "DigestSink",
           "canonical_line"]


class Sink:
    """Base class for event consumers; subclasses override :meth:`accept`.

    The base class declares empty ``__slots__`` so the built-in sinks can
    be fully slotted (accept() runs once per subscribed event);
    subclasses that don't declare ``__slots__`` get a ``__dict__`` as
    usual.
    """

    __slots__ = ()

    def accept(self, record: EventRecord) -> None:
        """Receive one event record (emission order is guaranteed)."""

    def finalize(self) -> None:
        """Called once after the last event of the stream."""


class MemorySink(Sink):
    """Retains every accepted record in a list for later inspection.

    Replaces the query surface of the old ``TraceRecorder``: filter by
    kind name and payload fields, pull timestamps, or bracket a span.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[EventRecord] = []

    def accept(self, record: EventRecord) -> None:
        """Append the record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self.records)

    def filter(self, kind: Optional[str] = None,
               **fields: Any) -> List[EventRecord]:
        """Records matching a kind name and/or exact payload field values."""
        out = []
        for rec in self.records:
            if kind is not None and rec.kind.name != kind:
                continue
            if any(rec.get(f, _MISSING) != v for f, v in fields.items()):
                continue
            out.append(rec)
        return out

    def times(self, kind: str, **fields: Any) -> List[float]:
        """Timestamps of matching records, in emission order."""
        return [rec.time for rec in self.filter(kind, **fields)]

    def first(self, kind: str, **fields: Any) -> Optional[EventRecord]:
        """Earliest matching record, or None."""
        matches = self.filter(kind, **fields)
        return matches[0] if matches else None

    def last(self, kind: str, **fields: Any) -> Optional[EventRecord]:
        """Latest matching record, or None."""
        matches = self.filter(kind, **fields)
        return matches[-1] if matches else None

    def span(self, kind: str, **fields: Any) -> float:
        """Last-minus-first timestamp over matching records (0.0 if <2)."""
        ts = self.times(kind, **fields)
        return ts[-1] - ts[0] if len(ts) >= 2 else 0.0


_MISSING = object()


def _bucket(nbytes: int) -> int:
    """Power-of-two histogram bucket index for a byte count."""
    return max(0, int(nbytes).bit_length() - 1)


class CounterSink(Sink):
    """Aggregates per-``(kind, rank)`` event counts and byte histograms.

    Feeds the diagnostics report: any record carrying a ``rank`` field is
    counted under that rank (rank -1 otherwise), and records with an
    ``nbytes`` field additionally land in a power-of-two size histogram.
    """

    __slots__ = ("counts", "histograms", "total")

    def __init__(self) -> None:
        self.counts: Dict[Tuple[str, int], int] = {}
        self.histograms: Dict[str, Dict[int, int]] = {}
        self.total = 0

    def accept(self, record: EventRecord) -> None:
        """Count the record and histogram its ``nbytes`` if present."""
        rank = record.get("rank", -1)
        if not isinstance(rank, int):
            rank = -1
        key = (record.kind.name, rank)
        self.counts[key] = self.counts.get(key, 0) + 1
        self.total += 1
        nbytes = record.get("nbytes")
        if isinstance(nbytes, int) and nbytes > 0:
            hist = self.histograms.setdefault(record.kind.name, {})
            bucket = _bucket(nbytes)
            hist[bucket] = hist.get(bucket, 0) + 1

    def count(self, kind: str, rank: Optional[int] = None) -> int:
        """Total events of ``kind`` (for one rank, or all ranks)."""
        if rank is not None:
            return self.counts.get((kind, rank), 0)
        return sum(n for (k, _), n in self.counts.items() if k == kind)

    def rank_counts(self, rank: int) -> Dict[str, int]:
        """Kind → count mapping for one rank."""
        return {k: n for (k, r), n in sorted(self.counts.items())
                if r == rank}

    def rows(self) -> List[Tuple[str, int, int]]:
        """Sorted ``(kind, rank, count)`` rows for tabular reports."""
        return [(k, r, n) for (k, r), n in sorted(self.counts.items())]

    def histogram_rows(self, kind: str) -> List[Tuple[str, int]]:
        """Sorted ``(size-range, count)`` rows for one kind's histogram."""
        hist = self.histograms.get(kind, {})
        return [(f"[{1 << b}, {1 << (b + 1)})", n)
                for b, n in sorted(hist.items())]


#: Entry cap of a :class:`DigestSink`'s fragment cache.  A two-rank trial
#: renders a few hundred distinct fragments; the cap bounds what a long
#: many-rank stream can pin in memory.
FRAGMENT_CACHE_CAP = 1024


def _serialize_block(triples, frags: Dict[Tuple[str, Any], str]) -> str:
    """The exact canonical byte stream for ``(time, kind, values)``
    triples: one ``canonical_line`` per triple, each newline-terminated.

    Batch form so :class:`DigestSink` pays the setup (local bindings,
    output list) once per block instead of once per record; the per-line
    format is the contract :func:`canonical_line` documents.  Two caches
    amortize the expensive string formatting without changing a single
    output byte:

    * the previous timestamp's hex string is reused when the next triple
      carries the *same float object* (``is`` check — bursts of events at
      one sim instant share the clock object, and identity can never
      conflate ``0.0`` with ``-0.0`` the way ``==`` would);
    * ``(prefix, value)`` fragments for exact ``int``/``str`` payloads
      (ranks, byte counts, tags — the overwhelming majority) are memoized
      in ``frags``, which the caller keeps across blocks; it grows to at
      most :data:`FRAGMENT_CACHE_CAP` entries.  ``bool`` never enters the
      cache (its class is ``bool``, not ``int``), so ``True`` cannot
      alias a cached ``1``.
    """
    out: List[str] = []
    append = out.append
    frag_get = frags.get
    last_time: Any = None
    last_hex = ""
    for time, kind, values in triples:
        if time is last_time:
            append(last_hex)
        else:
            last_time = time
            last_hex = (time.hex() if time.__class__ is float
                        else (format(time, "x") if isinstance(time, int)
                              else float(time).hex()))
            append(last_hex)
        append(kind._canon_name)
        idx = kind._wire_index
        if len(values) != len(idx):
            values = [values[i] for i in idx]
        # Exact-class checks first, most common type (int payloads:
        # ranks, byte counts, partition indices) leading; the isinstance
        # chain keeps subclasses such as numpy scalars rendering exactly
        # as plain repr()/hex() dispatch would.
        for prefix, value in zip(kind._canon_prefixes, values):
            cls = value.__class__
            if cls is int or cls is str:
                key = (prefix, value)
                frag = frag_get(key)
                if frag is None:
                    frag = prefix + repr(value)
                    if len(frags) < FRAGMENT_CACHE_CAP:
                        frags[key] = frag
                append(frag)
            elif cls is float:
                append(prefix + value.hex())
            elif cls is bool or isinstance(value, bool):
                append(prefix + ("true" if value else "false"))
            elif isinstance(value, float):
                append(prefix + value.hex())
            else:
                append(prefix + repr(value))
        append("\n")
    return "".join(out)


def canonical_line(record: EventRecord) -> str:
    """Bit-stable one-line serialization of a record's wire fields.

    ``<time>|<kind>|<field>=<value>|...`` — floats render via
    ``float.hex()`` so the representation is exact; the digest over these
    lines is what the serial / ``--jobs N`` / cached bit-identity tests
    compare.
    """
    return _serialize_block(
        ((record.time, record.kind, record.values),), {})[:-1]


class DigestSink(Sink):
    """SHA-256 digest over the canonical event stream.

    Equal digests mean bit-identical streams: same kinds, same order,
    same timestamps, same wire payloads.  Used by the runner to prove
    serial, parallel, and cached sweeps observe the same events.
    """

    __slots__ = ("_hash", "_pending", "_frags", "count")

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._pending: List[Tuple[Any, Any, Tuple]] = []
        #: Rendered ``(prefix, value)`` fragments, kept across blocks.
        self._frags: Dict[Tuple[str, Any], str] = {}
        self.count = 0

    def accept(self, record: EventRecord) -> None:
        """Fold the record's canonical line into the digest.

        Events are buffered and serialized in blocks — the byte stream
        hashed is identical to hashing each canonical line (plus newline)
        individually, so the digest value is unchanged, but the
        per-record cost drops to a list append.  Payload tuples are
        immutable, so deferring serialization cannot change what is
        hashed.
        """
        self._pending.append((record.time, record.kind, record.values))
        self.count += 1
        if len(self._pending) >= 512:
            self._fold()

    def accept_raw(self, time: float, kind, values: Tuple) -> None:
        """Record-free fast path: same stream bytes, no
        :class:`EventRecord` allocation (see ``EventBus.emit``)."""
        self._pending.append((time, kind, values))
        self.count += 1
        if len(self._pending) >= 512:
            self._fold()

    def _fold(self) -> None:
        pending = self._pending
        if pending:
            self._hash.update(
                _serialize_block(pending, self._frags).encode("utf-8"))
            del pending[:]

    def finalize(self) -> None:
        """Fold any buffered lines once the stream ends."""
        self._fold()

    def hexdigest(self) -> str:
        """Digest of everything accepted so far."""
        self._fold()
        return self._hash.hexdigest()
