"""Tests for the structured instrumentation layer (``repro.obs``).

Covers the schema/pattern resolution, record immutability, the bus
dispatch fast path, the built-in sinks, the streaming timeline builder's
error handling, exporter structure (including the Chrome trace format),
and end-to-end bit-identity of the runner's event stream.
"""

import io
import json
from pathlib import Path

import pytest

from repro.core import PtpBenchmarkConfig, run_ptp_trial
from repro.errors import ConfigurationError, SimulationError
from repro.obs import (CounterSink, DigestSink, EventBus, EventRecord,
                       MemorySink, TimelineBuilder, canonical_line)
from repro.obs.export import (event_to_dict, to_chrome_trace, write_jsonl,
                              write_chrome_trace)
from repro.obs.schema import SCHEMA, EventSchema


def _schema():
    s = EventSchema()
    s.register("part.pready", ("rank", "partition"), doc="x")
    s.register("part.arrived", ("rank", "partition", "nbytes"), doc="x")
    s.register("nic.tx_start", ("rank", "dst"), doc="x")
    return s


class TestSchema:
    def test_register_interns_dense_ids(self):
        s = _schema()
        assert [k.id for k in s.kinds()] == [0, 1, 2]
        assert s.kind("part.arrived").fields == ("rank", "partition",
                                                 "nbytes")

    def test_duplicate_registration_rejected(self):
        s = _schema()
        with pytest.raises(ConfigurationError):
            s.register("part.pready", ("rank",))

    def test_resolve_exact_wildcard_star(self):
        s = _schema()
        assert [k.name for k in s.resolve(["part.pready"])] == \
            ["part.pready"]
        assert [k.name for k in s.resolve(["part.*"])] == \
            ["part.pready", "part.arrived"]
        assert len(s.resolve(["*"])) == 3

    def test_resolve_dedupes_and_orders_by_id(self):
        s = _schema()
        kinds = s.resolve(["nic.tx_start", "part.*", "part.pready"])
        assert [k.name for k in kinds] == \
            ["part.pready", "part.arrived", "nic.tx_start"]

    def test_resolve_unknown_pattern_raises(self):
        s = _schema()
        with pytest.raises(ConfigurationError, match="unknown event kind"):
            s.resolve(["part.typo"])
        with pytest.raises(ConfigurationError):
            s.resolve(["bogus.*"])

    def test_kind_is_immutable(self):
        kind = _schema().kind("part.pready")
        with pytest.raises(AttributeError):
            kind.name = "other"

    def test_global_schema_has_part_and_bench_kinds(self):
        for name in ("part.init", "part.pready", "part.arrived",
                     "bench.part_begin", "bench.recv_complete",
                     "send.complete", "nic.tx_start"):
            assert name in SCHEMA

    def test_kind_table_in_docs_matches_schema(self):
        # docs/observability.md lists every kind: a kind added, removed
        # or reshaped without its row fails here.
        doc = Path(__file__).parent.parent / "docs" / "observability.md"

        def names(cell):
            cell = cell.strip()
            return () if cell == "—" else tuple(
                name.strip() for name in cell.split(","))

        rows = {}
        for line in doc.read_text().splitlines():
            cells = line.split("|")
            if len(cells) > 3 and cells[1].strip().startswith("`"):
                rows[cells[1].strip().strip("`")] = names(cells[2])
        assert rows == {kind.name: kind.fields for kind in SCHEMA.kinds()}


class TestEventRecord:
    def test_immutable(self):
        rec = EventRecord(1.0, _schema().kind("part.pready"), (0, 2))
        with pytest.raises(AttributeError):
            rec.time = 2.0
        with pytest.raises(AttributeError):
            del rec.kind

    def test_get_and_data(self):
        rec = EventRecord(1.0, _schema().kind("part.arrived"), (1, 2, 64))
        assert rec.get("partition") == 2
        assert rec.get("missing", "d") == "d"
        assert rec.data == {"rank": 1, "partition": 2, "nbytes": 64}


class TestEventBus:
    def test_disabled_kind_builds_no_record(self):
        s = _schema()
        bus = EventBus(s)
        assert not bus.subscribed(s.kind("part.pready"))
        bus.emit(s.kind("part.pready"), 0.0, 0, 0)  # no sink: no-op

    def test_dispatch_only_to_subscribed_kinds(self):
        s = _schema()
        bus = EventBus(s)
        mem = bus.record("part.pready")
        bus.emit(s.kind("part.pready"), 1.0, 0, 0)
        bus.emit(s.kind("part.arrived"), 2.0, 0, 0, 64)
        assert [r.kind.name for r in mem] == ["part.pready"]

    def test_detach_stops_delivery(self):
        s = _schema()
        bus = EventBus(s)
        mem = bus.record("*")
        bus.emit(s.kind("part.pready"), 1.0, 0, 0)
        bus.detach(mem)
        bus.emit(s.kind("part.pready"), 2.0, 0, 0)
        assert len(mem) == 1

    def test_late_registered_kind_is_tolerated(self):
        s = _schema()
        bus = EventBus(s)
        late = s.register("late.kind", ("rank",))
        bus.emit(late, 1.0, 0)  # must not raise
        mem = bus.record("late.kind")
        bus.emit(late, 2.0, 0)
        assert len(mem) == 1

    def test_emission_order_preserved_at_equal_time(self):
        s = _schema()
        bus = EventBus(s)
        mem = bus.record("*")
        for p in (2, 0, 1):
            bus.emit(s.kind("part.pready"), 5.0, 0, p)
        assert [r.get("partition") for r in mem] == [2, 0, 1]

    def test_finalize_reaches_each_sink_once(self):
        calls = []

        class Probe(MemorySink):
            def finalize(self):
                calls.append(self)

        s = _schema()
        bus = EventBus(s)
        probe = Probe()
        bus.attach(probe, ("part.pready",))
        bus.attach(probe, ("nic.tx_start",))
        bus.finalize()
        assert calls == [probe]


class TestMemorySink:
    def _filled(self):
        s = _schema()
        bus = EventBus(s)
        mem = bus.record("part.*")
        bus.emit(s.kind("part.pready"), 1.0, 0, 0)
        bus.emit(s.kind("part.pready"), 2.0, 1, 1)
        bus.emit(s.kind("part.arrived"), 3.0, 1, 0, 64)
        return mem

    def test_filter_by_kind_and_fields(self):
        mem = self._filled()
        assert len(mem.filter("part.pready")) == 2
        assert [r.time for r in mem.filter("part.pready", rank=1)] == [2.0]
        assert mem.filter("part.arrived", nbytes=999) == []

    def test_times_first_last_span(self):
        mem = self._filled()
        assert mem.times("part.pready") == [1.0, 2.0]
        assert mem.first("part.pready").time == 1.0
        assert mem.last("part.pready").time == 2.0
        assert mem.span("part.pready") == 1.0
        assert mem.first("nope") is None
        assert mem.span("part.arrived") == 0.0


class TestCounterSink:
    def test_counts(self):
        s = _schema()
        bus = EventBus(s)
        counters = bus.attach(CounterSink(), ("*",))
        bus.emit(s.kind("part.arrived"), 1.0, 0, 0, 64)
        bus.emit(s.kind("part.arrived"), 2.0, 0, 1, 4096)
        bus.emit(s.kind("part.pready"), 3.0, 1, 0)
        assert counters.total == 3
        assert counters.count("part.arrived") == 2
        assert counters.count("part.arrived", rank=0) == 2
        assert counters.count("part.pready", rank=0) == 0
        assert counters.rank_counts(1) == {"part.pready": 1}
        assert counters.rows() == [("part.arrived", 0, 2),
                                   ("part.pready", 1, 1)]


class TestDigest:
    def _stream(self, bus, s, times):
        for t in times:
            bus.emit(s.kind("part.arrived"), t, 0, 0, 64)

    def test_identical_streams_identical_digest(self):
        s = _schema()
        digests = []
        for _ in range(2):
            bus = EventBus(s)
            d = bus.attach(DigestSink(), ("*",))
            self._stream(bus, s, [0.1, 0.2])
            digests.append(d.hexdigest())
        assert digests[0] == digests[1]

    def test_different_payload_changes_digest(self):
        s = _schema()
        bus = EventBus(s)
        a = bus.attach(DigestSink(), ("*",))
        self._stream(bus, s, [0.1])
        bus2 = EventBus(s)
        b = bus2.attach(DigestSink(), ("*",))
        self._stream(bus2, s, [0.1 + 1e-15])
        assert a.hexdigest() != b.hexdigest()

    def test_canonical_line_is_exact(self):
        s = _schema()
        rec = EventRecord(0.1, s.kind("part.arrived"), (3, 1, 64))
        assert canonical_line(rec) == \
            f"{(0.1).hex()}|part.arrived|rank=3|partition=1|nbytes=64"


#: ``part.pready`` declares three fields; these payloads carry two and four.
_WRONG_LENGTH = [(0, 1), (0, 1, 0, None)]


class TestWrongLengthPayload:
    """A payload that does not match its kind's fields raises wherever it
    is rendered, instead of rendering a shortened or truncated line."""

    @pytest.mark.parametrize("values", _WRONG_LENGTH, ids=len)
    def test_digest_raises(self, values):
        bus = EventBus()
        digest = bus.attach(DigestSink(), ("*",))
        bus.emit(SCHEMA.kind("part.pready"), 0.1, *values)
        with pytest.raises(ValueError):
            digest.hexdigest()
        with pytest.raises(ValueError):
            canonical_line(
                EventRecord(0.1, SCHEMA.kind("part.pready"), values))

    @pytest.mark.parametrize("values", _WRONG_LENGTH, ids=len)
    def test_exporters_raise(self, values):
        records = [EventRecord(0.1, SCHEMA.kind("part.pready"), values)]
        with pytest.raises(ValueError):
            write_jsonl(records, io.StringIO())
        with pytest.raises(ValueError):
            write_chrome_trace(records, io.StringIO())


def _emit_iteration(bus, s=SCHEMA, iteration=0, partitions=2, t0=0.0):
    """Emit one well-formed benchmark iteration on ``bus``."""
    e = bus.emit
    e(s.kind("bench.part_begin"), t0, 0, iteration, 128, partitions)
    for p in range(partitions):
        e(s.kind("part.pready"), t0 + 0.01 * (p + 1), 0, p, 0)
        e(s.kind("part.arrived"), t0 + 0.02 * (p + 1), 1, p, 0, 64)
    e(s.kind("bench.single_begin"), t0 + 0.1, 0, iteration)
    e(s.kind("bench.join"), t0 + 0.12, 0, iteration)
    e(s.kind("bench.send_begin"), t0 + 0.13, 0, iteration)
    e(s.kind("bench.recv_complete"), t0 + 0.15, 1, iteration)


class TestTimelineBuilder:
    def test_builds_one_timeline_per_iteration(self):
        bus = EventBus()
        builder = bus.attach(TimelineBuilder(), TimelineBuilder.PATTERNS)
        _emit_iteration(bus, iteration=0, t0=0.0)
        _emit_iteration(bus, iteration=1, t0=1.0)
        bus.finalize()
        assert [it for it, _ in builder.timelines] == [0, 1]
        it0 = builder.timelines[0][1]
        assert it0.message_bytes == 128
        assert it0.pready_times == pytest.approx([0.01, 0.02])
        assert it0.arrival_times == pytest.approx([0.02, 0.04])
        assert it0.join_time == pytest.approx(0.02)
        assert it0.pt2pt_time == pytest.approx(0.02)

    def test_marker_outside_iteration_raises(self):
        bus = EventBus()
        bus.attach(TimelineBuilder(), TimelineBuilder.PATTERNS)
        with pytest.raises(SimulationError, match="outside a benchmark"):
            bus.emit(SCHEMA.kind("bench.join"), 0.0, 0, 0)

    def test_duplicate_pready_raises(self):
        bus = EventBus()
        bus.attach(TimelineBuilder(), TimelineBuilder.PATTERNS)
        bus.emit(SCHEMA.kind("bench.part_begin"), 0.0, 0, 0, 128, 2)
        bus.emit(SCHEMA.kind("part.pready"), 0.1, 0, 1, 0)
        with pytest.raises(SimulationError, match="duplicate"):
            bus.emit(SCHEMA.kind("part.pready"), 0.2, 0, 1, 0)

    def test_partition_out_of_range_raises(self):
        bus = EventBus()
        bus.attach(TimelineBuilder(), TimelineBuilder.PATTERNS)
        bus.emit(SCHEMA.kind("bench.part_begin"), 0.0, 0, 0, 128, 2)
        with pytest.raises(SimulationError, match="outside"):
            bus.emit(SCHEMA.kind("part.pready"), 0.1, 0, 5, 0)

    def test_incomplete_iteration_close_raises(self):
        bus = EventBus()
        bus.attach(TimelineBuilder(), TimelineBuilder.PATTERNS)
        bus.emit(SCHEMA.kind("bench.part_begin"), 0.0, 0, 0, 128, 1)
        with pytest.raises(SimulationError, match="incomplete"):
            bus.emit(SCHEMA.kind("bench.recv_complete"), 0.2, 1, 0)

    def test_unclosed_stream_raises_at_finalize(self):
        bus = EventBus()
        bus.attach(TimelineBuilder(), TimelineBuilder.PATTERNS)
        bus.emit(SCHEMA.kind("bench.part_begin"), 0.0, 0, 0, 128, 1)
        with pytest.raises(SimulationError, match="still open"):
            bus.finalize()

    def test_nested_part_begin_raises(self):
        bus = EventBus()
        bus.attach(TimelineBuilder(), TimelineBuilder.PATTERNS)
        bus.emit(SCHEMA.kind("bench.part_begin"), 0.0, 0, 0, 128, 1)
        with pytest.raises(SimulationError, match="still open"):
            bus.emit(SCHEMA.kind("bench.part_begin"), 0.5, 0, 1, 128, 1)


class TestExporters:
    def _records(self):
        bus = EventBus()
        mem = bus.record("bench.*", "part.pready", "part.arrived")
        _emit_iteration(bus)
        return mem.records

    def test_event_to_dict_is_wire_only(self):
        out = event_to_dict(self._records()[1])
        assert out["kind"] == "part.pready"
        assert "req" not in out
        assert set(out) == {"t", "kind", "rank", "partition", "epoch"}

    def test_write_jsonl_round_trips(self):
        records = self._records()
        buf = io.StringIO()
        n = write_jsonl(records, buf)
        lines = buf.getvalue().strip().split("\n")
        assert n == len(records) == len(lines)
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "bench.part_begin"
        assert parsed[0]["message_bytes"] == 128

    def test_chrome_trace_structure(self):
        records = self._records()
        trace = to_chrome_trace(records)
        assert set(trace) >= {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        instants = [e for e in events if e["ph"] == "i"]
        # one process_name + one thread_name per rank seen (0 and 1)
        assert {m["name"] for m in meta} == {"process_name", "thread_name"}
        assert sorted(m["tid"] for m in meta if "tid" in m) == [0, 1]
        assert len(instants) == len(records)
        for e in instants:
            assert e["s"] == "t" and e["pid"] == 0
            assert isinstance(e["tid"], int)
            assert e["cat"] in {"bench", "part"}
        # timestamps are microseconds of simulated time, emission order
        assert instants[0]["ts"] == pytest.approx(0.0)
        assert instants[-1]["ts"] == pytest.approx(0.15e6)

    def test_write_chrome_trace_is_valid_json(self):
        buf = io.StringIO()
        n = write_chrome_trace(self._records(), buf)
        parsed = json.loads(buf.getvalue())
        assert n == len(parsed["traceEvents"])


class TestRunnerStream:
    CONFIG = PtpBenchmarkConfig(message_bytes=1 << 12, partitions=2,
                                compute_seconds=1e-4, iterations=2,
                                warmup=1, seed=3)

    def test_trial_digest_is_reproducible(self):
        a, _ = run_ptp_trial(self.CONFIG)
        b, _ = run_ptp_trial(self.CONFIG)
        assert a.event_digest is not None
        assert a.event_digest == b.event_digest
        assert len(a.samples) == self.CONFIG.iterations

    def test_trial_accepts_extra_sinks(self):
        counters = CounterSink()
        mem = MemorySink()
        result, cluster = run_ptp_trial(
            self.CONFIG, sinks=[counters, (mem, ("part.arrived",))])
        assert counters.total > 0
        assert counters.count("bench.recv_complete") == \
            self.CONFIG.iterations + self.CONFIG.warmup
        per_iter = self.CONFIG.partitions
        assert len(mem) == (self.CONFIG.iterations +
                            self.CONFIG.warmup) * per_iter
        assert cluster.now > 0

    def test_trial_chrome_export_end_to_end(self):
        mem = MemorySink()
        run_ptp_trial(self.CONFIG, sinks=[(mem, ("bench.*", "part.*"))])
        trace = to_chrome_trace(mem.records)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == len(mem)
        assert {e["cat"] for e in instants} == {"bench", "part"}
        tids = {e["tid"] for e in instants}
        assert tids == {0, 1}
        # the stream must be renderable: strictly JSON-serializable
        json.dumps(trace)

    def test_timelines_match_metrics_pipeline(self):
        from repro.metrics import PtpMetrics
        result, _ = run_ptp_trial(self.CONFIG)
        for sample in result.samples:
            assert sample.metrics == \
                PtpMetrics.from_timeline(sample.timeline)
            assert sample.timeline.partitions == self.CONFIG.partitions
