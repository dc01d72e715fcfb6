"""Event-stream exporters: JSONL and Chrome ``about://tracing``.

Both exporters write every declared field and preserve emission order.
The Chrome format follows the Trace Event Format's JSON-object flavour:
a top-level ``traceEvents`` list of instant events, timestamps in
microseconds, one ``tid`` lane per rank — load the file at
``about://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, TextIO

from .record import EventRecord

__all__ = ["event_to_dict", "write_jsonl", "to_chrome_trace",
           "write_chrome_trace"]


def event_to_dict(record: EventRecord) -> Dict[str, Any]:
    """One record as a flat JSON-able dict."""
    out: Dict[str, Any] = {"t": record.time, "kind": record.kind.name}
    out.update(record.data)
    return out


def write_jsonl(records: Iterable[EventRecord], stream: TextIO) -> int:
    """Write one JSON object per line; returns the number of lines."""
    count = 0
    for record in records:
        stream.write(json.dumps(event_to_dict(record), sort_keys=True))
        stream.write("\n")
        count += 1
    return count


def to_chrome_trace(records: Iterable[EventRecord]) -> Dict[str, Any]:
    """The Chrome trace-viewer JSON object for an event stream.

    Every record becomes an instant event (``ph: "i"``, thread scope)
    with ``ts`` in microseconds, ``pid`` 0 (one simulated job) and
    ``tid`` set to the record's rank, so the viewer lays ranks out as
    separate lanes.
    """
    events: List[Dict[str, Any]] = []
    ranks = set()
    for record in records:
        data = record.data
        rank = data.get("rank", 0)
        if not isinstance(rank, int):
            rank = 0
        ranks.add(rank)
        name = record.kind.name
        events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "i",
            "s": "t",
            "ts": record.time * 1e6,
            "pid": 0,
            "tid": rank,
            "args": data,
        })
    metadata = [
        {"name": "process_name", "ph": "M", "pid": 0,
         "args": {"name": "repro simulation"}},
    ]
    metadata.extend(
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": rank,
         "args": {"name": f"rank {rank}"}}
        for rank in sorted(ranks)
    )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs"},
    }


def write_chrome_trace(records: Iterable[EventRecord],
                       stream: TextIO) -> int:
    """Write the Chrome trace JSON; returns the number of trace events."""
    trace = to_chrome_trace(records)
    json.dump(trace, stream, indent=1)
    stream.write("\n")
    return len(trace["traceEvents"])
