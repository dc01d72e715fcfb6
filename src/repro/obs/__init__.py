"""Structured instrumentation: typed events, one bus, pluggable sinks.

``repro.obs`` is the single substrate every recorder in the suite is
built on — the architecture a Caliper-style analysis layer gives real
MPI benchmarks.  The pieces:

* :mod:`~repro.obs.schema` — registered event kinds with declared
  fields and interned integer ids (:data:`SCHEMA` holds the built-ins
  from :mod:`~repro.obs.kinds`).
* :mod:`~repro.obs.record` — slotted, immutable :class:`EventRecord`.
* :mod:`~repro.obs.bus` — :class:`EventBus` with per-kind dispatch; an
  emit with no subscriber costs one list index plus a falsy test.
* :mod:`~repro.obs.sinks` — :class:`MemorySink` (capture + queries),
  :class:`CounterSink` (per-rank event counts for the
  diagnostics report), :class:`DigestSink` (SHA-256 stream identity).
* :mod:`~repro.obs.timeline` — the streaming :class:`TimelineBuilder`
  producing :class:`~repro.metrics.timeline.PartitionTimeline` objects.
* :mod:`~repro.obs.export` — JSONL and Chrome ``about://tracing``
  exporters (``repro trace export``).

A quick capture::

    cluster = Cluster(nranks=2)
    mem = cluster.obs.record("part.*")   # MemorySink on all part events
    cluster.run(program)
    mem.times("part.arrived")
"""

from . import kinds
from .bus import EventBus
from .export import (event_to_dict, to_chrome_trace, write_chrome_trace,
                     write_jsonl)
from .record import EventRecord
from .schema import SCHEMA, EventKind, EventSchema
from .sinks import (CounterSink, DigestSink, MemorySink, Sink,
                    canonical_line)
from .timeline import TimelineBuilder

__all__ = [
    "SCHEMA",
    "EventKind",
    "EventSchema",
    "EventRecord",
    "EventBus",
    "Sink",
    "MemorySink",
    "CounterSink",
    "DigestSink",
    "canonical_line",
    "TimelineBuilder",
    "event_to_dict",
    "write_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "kinds",
]
