"""The sweep service: protocol, scheduler, daemon, and client."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import (PtpBenchmarkConfig, ResultCache, plan_cells,
                        run_cells, run_ptp_benchmark)
from repro.core.parallel import config_fingerprint
from repro.core.runner import EXECUTIONS
from repro.noise import UniformNoise
from repro.service import (ProtocolError, QuotaError, ServiceClient,
                           ServiceError, SweepScheduler, SweepService,
                           config_from_payload, payload_from_config, serve)
from repro.service.protocol import (error_payload, parse_sweep_request,
                                    parse_trial_request, result_to_payload)


def _base(**overrides):
    defaults = dict(message_bytes=64, partitions=1,
                    compute_seconds=1e-4, iterations=2)
    defaults.update(overrides)
    return PtpBenchmarkConfig(**defaults)


def _payload(**overrides):
    defaults = dict(message_bytes=64, partitions=2,
                    compute_seconds=1e-4, iterations=2, warmup=0)
    defaults.update(overrides)
    return defaults


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on an ephemeral port, fresh cache, inline engine."""
    cache = ResultCache(tmp_path / "cache")
    # A generous batch window so a whole test herd lands in one batch
    # (deterministic single-flight accounting), and one dispatcher so
    # batches execute in priority order.
    scheduler = SweepScheduler(cache=cache, jobs=1, quota=64,
                               batch_window=0.25, max_batch=64)
    service = serve(scheduler, port=0)
    yield service, scheduler, cache
    service.stop()


def _client(service, name="test"):
    host, port = service.address
    return ServiceClient(f"http://{host}:{port}", client_id=name,
                         timeout=60.0)


# ---------------------------------------------------------------------------
# Protocol: request validation and payload round trips
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_config_round_trip_addresses_same_fingerprint(self):
        config = _base(partitions=4, noise=UniformNoise(4.0), seed=3)
        rebuilt = config_from_payload(payload_from_config(config))
        assert config_fingerprint(rebuilt) == config_fingerprint(config)

    def test_unknown_field_rejected_with_reason(self):
        with pytest.raises(ProtocolError) as err:
            config_from_payload(_payload(partitons=4))
        assert "partitons" in str(err.value)
        assert err.value.status == 400

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ProtocolError):
            config_from_payload(_payload(partitions=True))

    def test_compute_seconds_and_ms_conflict(self):
        with pytest.raises(ProtocolError):
            config_from_payload(_payload(compute_ms=1.0))

    def test_compute_ms_scales(self):
        payload = _payload()
        del payload["compute_seconds"]
        payload["compute_ms"] = 2.0
        assert config_from_payload(payload).compute_seconds == 2e-3

    def test_config_validation_reason_propagates(self):
        with pytest.raises(ProtocolError) as err:
            config_from_payload(_payload(partitions=-1))
        assert err.value.status == 400
        # Python's json parses NaN/Infinity, and ints are unbounded: each
        # of these once got past validation and failed later (a result,
        # a mid-trial SimulationError, a numpy OverflowError, a
        # struct.error when the answer was framed).
        for body in (
                '{"message_bytes": 64, "partitions": 2, '
                '"compute_seconds": NaN}',
                '{"message_bytes": 64, "partitions": 2, '
                '"compute_seconds": Infinity}',
                '{"message_bytes": 64, "partitions": 2, '
                '"noise": "uniform", "noise_percent": NaN}',
                '{"message_bytes": 100000000000000000000000000, '
                '"partitions": 2}'):
            with pytest.raises(ProtocolError) as err:
                parse_trial_request({"config": json.loads(body)})
            assert err.value.status == 400, body

    def test_trial_request_shape(self):
        config, client, priority, fmt, samples = parse_trial_request(
            {"config": _payload(), "client": "c1", "priority": 2,
             "format": "wire", "samples": True})
        assert (client, priority, fmt, samples) == ("c1", 2, "wire", True)
        assert config.partitions == 2

    def test_trial_request_rejects_bad_format(self):
        with pytest.raises(ProtocolError):
            parse_trial_request({"config": _payload(), "format": "xml"})

    def test_sweep_request_plans_cells_like_the_cli(self):
        cells, _, _, _ = parse_sweep_request(
            {"base": _payload(partitions=1), "sizes": [64, 128],
             "counts": [1, 2]})
        local = plan_cells(config_from_payload(_payload(partitions=1)),
                           [64, 128], [1, 2])
        assert [config_fingerprint(c) for c in cells] == \
            [config_fingerprint(c) for c in local]

    def test_sweep_request_needs_grid_axes(self):
        with pytest.raises(ProtocolError):
            parse_sweep_request({"base": _payload(), "sizes": [64]})

    def test_result_payload_carries_identity_and_metrics(self):
        config = _base()
        result = run_ptp_benchmark(config)
        payload = result_to_payload(result)
        assert payload["fingerprint"] == config_fingerprint(config)
        assert payload["event_digest"] == result.event_digest
        assert payload["metrics"]["overhead"] == result.overhead.mean
        assert "samples" not in payload
        assert "samples" in result_to_payload(result, include_samples=True)

    def test_error_payload_shape(self):
        body = error_payload(ProtocolError("nope"))
        assert body == {"error": {"status": 400, "reason": "nope"}}


# ---------------------------------------------------------------------------
# Scheduler: quotas, priorities, shutdown
# ---------------------------------------------------------------------------

def _wait_until_taken(scheduler, timeout=10.0):
    """Spin until the dispatcher has popped everything queued so far."""
    import time
    deadline = time.monotonic() + timeout
    while scheduler._queue:
        assert time.monotonic() < deadline, "dispatcher never took work"
        time.sleep(0.001)


class TestScheduler:
    def test_quota_zero_rejects_everything(self, tmp_path):
        scheduler = SweepScheduler(cache=ResultCache(tmp_path / "c"),
                                   quota=0)
        try:
            with pytest.raises(QuotaError) as err:
                scheduler.submit(_base(), client="greedy")
            assert err.value.status == 429
            assert err.value.client == "greedy"
            assert scheduler.stats.rejected_quota == 1
        finally:
            scheduler.stop()

    def test_quota_releases_when_request_completes(self, tmp_path):
        scheduler = SweepScheduler(cache=ResultCache(tmp_path / "c"),
                                   quota=1, batch_window=0.0)
        try:
            scheduler.execute(_base(), client="one")
            assert scheduler.inflight("one") == 0
            # The slot is free again: a second request is admitted.
            scheduler.execute(_base(seed=1), client="one")
        finally:
            scheduler.stop()

    def test_priority_orders_the_queue(self, tmp_path):
        order = []
        gate = threading.Event()
        scheduler = SweepScheduler(cache=ResultCache(tmp_path / "c"),
                                   quota=64, batch_window=0.0,
                                   max_batch=1, dispatchers=1)
        real = scheduler._run_batch

        def observed(batch):
            gate.wait(30.0)
            order.extend(r.priority for r in batch)
            real(batch)

        scheduler._run_batch = observed
        try:
            # The first submit occupies the lone dispatcher (blocked on
            # the gate); the rest pile up and must drain by priority.
            first = scheduler.submit(_base(seed=0), priority=0)
            _wait_until_taken(scheduler)
            rest = [scheduler.submit(_base(seed=i), priority=p)
                    for i, p in ((1, 1), (2, 5), (3, 3))]
            gate.set()
            for request in [first] + rest:
                scheduler.wait(request, timeout=60.0)
            assert order == [0, 5, 3, 1]
        finally:
            scheduler.stop()

    def test_stop_fails_pending_requests(self, tmp_path):
        gate = threading.Event()
        scheduler = SweepScheduler(cache=ResultCache(tmp_path / "c"),
                                   quota=64, batch_window=0.0,
                                   max_batch=1, dispatchers=1)
        real = scheduler._run_batch
        scheduler._run_batch = lambda batch: (gate.wait(30.0), real(batch))
        blocker = scheduler.submit(_base(seed=0))
        _wait_until_taken(scheduler)    # the dispatcher holds `blocker`
        queued = scheduler.submit(_base(seed=1))
        scheduler.stop(timeout=0.1)     # fails `queued` without running it
        gate.set()
        with pytest.raises(ServiceError) as err:
            scheduler.wait(queued, timeout=30.0)
        assert err.value.status == 503
        with pytest.raises(ServiceError):
            scheduler.submit(_base(seed=2))
        scheduler.stop()

    def test_batch_failure_answers_every_requester(self, tmp_path,
                                                   monkeypatch):
        scheduler = SweepScheduler(cache=ResultCache(tmp_path / "c"),
                                   quota=64, batch_window=0.25)
        monkeypatch.setattr(
            "repro.service.scheduler.run_cells",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        try:
            requests = [scheduler.submit(_base(seed=i)) for i in range(3)]
            for request in requests:
                with pytest.raises(ServiceError) as err:
                    scheduler.wait(request, timeout=30.0)
                assert "boom" in err.value.reason
            assert scheduler.stats.failed == 3
            assert scheduler.inflight() == 0
        finally:
            scheduler.stop()

    def test_failed_batch_still_counts_as_a_batch(self, tmp_path,
                                                  monkeypatch):
        scheduler = SweepScheduler(cache=ResultCache(tmp_path / "c"),
                                   quota=64, batch_window=0.0,
                                   dispatchers=1)
        monkeypatch.setattr(
            "repro.service.scheduler.run_cells",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        try:
            # Holding the queue's lock while submitting lands all three
            # requests in the lone dispatcher's first batch.
            with scheduler._cv:
                batch = [scheduler.submit(_base(seed=i)) for i in range(3)]
            for request in batch:
                with pytest.raises(ServiceError):
                    scheduler.wait(request, timeout=30.0)
            stats = scheduler.stats.as_dict()
            assert stats["batches"] == 1
            assert stats["failed"] == len(batch)
            assert stats["served"] == stats["executed"] == 0
        finally:
            scheduler.stop()

    def test_jobs_below_one_rejected_at_construction(self, tmp_path):
        with pytest.raises(ServiceError, match="jobs must be >= 1: 0"):
            SweepScheduler(cache=ResultCache(tmp_path / "c"), jobs=0)

    def test_serve_with_jobs_zero_exits_before_binding(self, monkeypatch):
        from repro.cli import main
        from repro.service import server

        def no_bind(*args, **kwargs):
            raise AssertionError("bound a port with --jobs 0")

        monkeypatch.setattr(server, "ThreadingHTTPServer", no_bind)
        with pytest.raises(ServiceError, match="jobs must be >= 1"):
            main(["serve", "--port", "0", "--jobs", "0"])


# ---------------------------------------------------------------------------
# Daemon: the satellite acceptance tests
# ---------------------------------------------------------------------------

class TestDaemon:
    def test_concurrent_clients_execute_uncached_config_once(self,
                                                             tmp_path):
        """N clients, one uncached config: one execution, N-1 shared.

        One dispatcher with a generous batch window, so the whole herd
        deterministically lands in a single batch and the N-1
        duplicates are answered as single-flight followers (with more
        dispatchers some land in later batches and surface as cache
        hits instead — same single execution, different counter).
        """
        scheduler = SweepScheduler(cache=ResultCache(tmp_path / "c"),
                                   jobs=1, quota=64, batch_window=1.0,
                                   max_batch=64, dispatchers=1)
        service = serve(scheduler, port=0)
        n = 8
        payloads = [None] * n
        EXECUTIONS.reset()

        def hit(i):
            payloads[i] = _client(service, f"c{i}").trial(_payload())

        try:
            threads = [threading.Thread(target=hit, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            service.stop()
        assert all(p is not None for p in payloads)
        assert len({p["event_digest"] for p in payloads}) == 1
        assert EXECUTIONS.value == 1
        stats = scheduler.stats.as_dict()
        assert stats["executed"] == 1
        assert stats["singleflight_hits"] == n - 1

    def test_quota_exceeded_is_a_429(self, tmp_path):
        scheduler = SweepScheduler(cache=ResultCache(tmp_path / "c"),
                                   quota=0)
        service = serve(scheduler, port=0)
        try:
            with pytest.raises(QuotaError) as err:
                _client(service, "greedy").trial(_payload())
            assert err.value.status == 429
            assert "quota" in str(err.value)
        finally:
            service.stop()

    def test_malformed_config_is_a_structured_400(self, daemon):
        service, _, _ = daemon
        host, port = service.address
        body = json.dumps({"config": {"partitons": 4}}).encode()
        request = urllib.request.Request(
            f"http://{host}:{port}/trial", data=body,
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30.0)
        assert err.value.code == 400
        payload = json.loads(err.value.read())
        assert payload["error"]["status"] == 400
        assert "partitons" in payload["error"]["reason"]

    def test_invalid_json_is_a_400(self, daemon):
        service, _, _ = daemon
        host, port = service.address
        request = urllib.request.Request(
            f"http://{host}:{port}/trial", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30.0)
        assert err.value.code == 400
        assert "JSON" in json.loads(err.value.read())["error"]["reason"]

    def test_unknown_endpoint_is_a_404(self, daemon):
        service, _, _ = daemon
        host, port = service.address
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"http://{host}:{port}/nope",
                                   timeout=30.0)
        assert err.value.code == 404

    def test_wire_result_is_byte_identical_to_local_run(self, daemon):
        """The daemon's answer decodes to the exact local-run digest."""
        service, _, _ = daemon
        config = config_from_payload(_payload(seed=5))
        remote = _client(service).trial_result(config)
        local = run_ptp_benchmark(config)
        assert remote.event_digest == local.event_digest
        assert [s.metrics for s in remote.samples] == \
            [s.metrics for s in local.samples]

    def test_sweep_matches_serial_cli_run(self, daemon):
        """A service sweep and a serial engine run agree digest-for-digest."""
        service, _, _ = daemon
        base = _payload(partitions=1)
        cells = _client(service).sweep(base, sizes=[64, 128],
                                       counts=[1, 2])
        local, _ = run_cells(
            plan_cells(config_from_payload(base), [64, 128], [1, 2]),
            jobs=1)
        assert [c["event_digest"] for c in cells] == \
            [r.event_digest for r in local]

    def test_repeat_request_is_a_cache_hit(self, daemon):
        service, scheduler, _ = daemon
        client = _client(service)
        first = client.trial(_payload(seed=7))
        second = client.trial(_payload(seed=7))
        assert first["event_digest"] == second["event_digest"]
        assert scheduler.stats.as_dict()["cache_hits"] >= 1

    def test_healthz_and_stats_endpoints(self, daemon):
        service, _, _ = daemon
        client = _client(service)
        health = client.healthz()
        assert health["status"] == "ok"
        client.trial(_payload(seed=11))
        stats = client.stats()
        assert stats["scheduler"]["served"] >= 1
        assert sorted(stats["scheduler"]) == [
            "analytic", "batches", "cache_hits", "executed", "failed",
            "rejected_quota", "requests", "served", "singleflight_hits",
            "trials"]
        assert "entries" in stats["cache"]

    def test_service_events_are_emitted(self, daemon):
        service, scheduler, _ = daemon
        mem = scheduler.obs.record("service.*")
        _client(service, "obsy").trial(_payload(seed=13))
        kinds = {record.kind.name for record in mem}
        assert "service.request" in kinds
        assert "service.response" in kinds
        assert "service.batch" in kinds
