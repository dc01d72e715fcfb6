"""The sweep service: protocol, scheduler, daemon, and client."""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import (PtpBenchmarkConfig, ResultCache, plan_cells,
                        run_cells, run_ptp_benchmark)
from repro.core.config import MAX_PARTITION_ITERATIONS, MAX_SPAN_SECONDS
from repro.core.parallel import config_fingerprint
from repro.core.runner import EXECUTIONS
from repro.noise import UniformNoise
from repro.service import (ProtocolError, QuotaError, ServiceClient,
                           ServiceError, SweepScheduler, SweepService,
                           config_from_payload, payload_from_config, serve)
from repro.service import server
from repro.service.protocol import (_CONFIG_FIELDS, _SWEEP_KEYS, _TRIAL_KEYS,
                                    error_payload, parse_sweep_request,
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


#: Clients a test opened; closed after it, so no kept-alive socket leaks.
_OPEN_CLIENTS = []


@pytest.fixture(autouse=True)
def _close_clients():
    yield
    while _OPEN_CLIENTS:
        _OPEN_CLIENTS.pop().close()


def _client(service, name="test"):
    host, port = service.address
    client = ServiceClient(f"http://{host}:{port}", client_id=name,
                           timeout=60.0)
    _OPEN_CLIENTS.append(client)
    return client


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
                '"partitions": 2}',
                # Finite, but a trial this long cannot resolve a
                # microsecond transfer against the absolute clock.
                '{"message_bytes": 64, "partitions": 2, '
                '"compute_ms": 1e300}',
                '{"message_bytes": 64, "partitions": 2, '
                '"noise": "uniform", "noise_percent": 1e308}',
                # No compute, so no span: the work bound refuses it.
                '{"message_bytes": 64, "partitions": 1, '
                '"compute_seconds": 0, "iterations": 1000000000}',
                '{"message_bytes": 1048576, "partitions": 65536, '
                '"compute_seconds": 0, "iterations": 1}'):
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
        # A typo of 'samples' must not answer 200 without samples.
        with pytest.raises(ProtocolError) as err:
            parse_trial_request({"config": _payload(), "sample": True})
        assert err.value.status == 400
        assert "'sample'" in err.value.reason
        assert "samples" in err.value.reason

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

    @pytest.mark.parametrize("sizes", [[0, 16], [-5, 16]])
    def test_sweep_axis_value_below_one_is_rejected(self, sizes):
        # Not skipped as an unsplittable cell next to a valid one.
        with pytest.raises(ProtocolError, match="message_bytes must be >= 1"
                           ) as err:
            parse_sweep_request({"base": _payload(partitions=1),
                                 "sizes": sizes, "counts": [1]})
        assert err.value.status == 400

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


#: Any JSON value Python's ``json`` module can produce: NaN, ±Infinity,
#: unbounded ints, and nested lists and objects.
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)

#: Integers past the wire frame's 2**64 and past the float range.
_HUGE = st.sampled_from([1 << 64, 10 ** 400])

#: Numbers at the edges: non-finite, huge, past the float range.
_NUMBER = (st.floats() | st.integers() | _HUGE
           | st.sampled_from([0, 1, 64, 1e300, 1e308]))


def _weighted(*choices):
    """Draw from ``(weight, strategy)`` choices in proportion."""
    pool = [strategy for weight, strategy in choices for _ in range(weight)]
    return st.integers(0, len(pool) - 1).flatmap(pool.__getitem__)


def _mostly(valid):
    """``valid`` three times in four, any JSON value otherwise."""
    return _weighted((3, valid), (1, _JSON))


def _body(required, optional, keys):
    """A JSON object with the ``required`` and some ``optional`` fields;
    or the same keys plus junk ones with arbitrary values; or any JSON
    value at all."""
    well_formed = st.fixed_dictionaries(required, optional=optional)
    junk = st.dictionaries(st.sampled_from(keys + ("partitons", "sample")),
                           _JSON, max_size=6)
    return _weighted((8, well_formed), (1, junk), (1, _JSON))


_CONFIG = _body(
    {"message_bytes": _mostly(st.integers(1, 1 << 20) | _HUGE),
     "partitions": _mostly(st.integers(1, 64) | _HUGE)},
    {"partitions_per_thread": _mostly(st.integers(1, 4)),
     "iterations": _mostly(st.integers(1, 1 << 40) | _HUGE),
     "warmup": _mostly(st.integers(0, 1 << 40) | _HUGE),
     "seed": _mostly(_NUMBER),
     "compute_seconds": _mostly(_NUMBER),
     "compute_ms": _mostly(_NUMBER),
     "noise": _mostly(st.sampled_from(["none", "uniform", "single",
                                       "gaussian", "exponential"])),
     "noise_percent": _mostly(_NUMBER),
     "cache": _mostly(st.sampled_from(["hot", "cold"]))},
    _CONFIG_FIELDS)

_ENVELOPE = {"client": _mostly(st.text(max_size=6)),
             "priority": _mostly(st.integers()),
             "samples": _mostly(st.booleans())}

#: A sweep axis: a short list of ints, sometimes huge or negative.
_AXIS = _mostly(st.lists(st.integers(-1, 1 << 20) | _HUGE, max_size=3))

_TRIAL = _body({"config": _CONFIG},
               {**_ENVELOPE, "format": _mostly(st.sampled_from(["json",
                                                                "wire"]))},
               _TRIAL_KEYS)
_SWEEP = _body({"base": _CONFIG, "sizes": _AXIS, "counts": _AXIS},
               _ENVELOPE, _SWEEP_KEYS)


def _parses_or_400(parse, payload):
    """Parse ``payload``; the only failure allowed is a 400, and every
    accepted config is one the engine can run."""
    try:
        parsed = parse(payload)
    except ProtocolError as exc:
        assert exc.status == 400
        return
    configs = parsed[0] if isinstance(parsed[0], list) else [parsed[0]]
    for config in configs:
        assert config.message_bytes < 1 << 64
        per_iteration = config.compute_seconds * (
            1.0 + getattr(config.noise, "fraction", 0.0))
        assert (per_iteration == 0 or config.total_iterations
                <= MAX_SPAN_SECONDS / per_iteration)
        assert (config.total_iterations * config.partitions
                <= MAX_PARTITION_ITERATIONS)


_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

_SPAN_BODIES = ({"message_bytes": 64, "partitions": 2, "compute_ms": 1e300},
                {"message_bytes": 64, "partitions": 2, "noise": "uniform",
                 "noise_percent": 1e308})


class TestProtocolIsTotal:
    """Any JSON body parses or is a 400: no other exception escapes."""

    @_FUZZ
    @given(_TRIAL)
    @example({"config": _SPAN_BODIES[0]})
    @example({"config": _SPAN_BODIES[1]})
    @example({"config": {"message_bytes": 64, "partitions": 2},
              "sample": True})
    @example({"config": {"message_bytes": 64, "partitions": 2,
                         "compute_seconds": 0, "iterations": 10 ** 400}})
    def test_trial_request(self, payload):
        _parses_or_400(parse_trial_request, payload)

    @_FUZZ
    @given(_SWEEP)
    @example({"base": _SPAN_BODIES[0], "sizes": [64], "counts": [1]})
    @example({"base": _SPAN_BODIES[1], "sizes": [64], "counts": [1]})
    @example({"base": {"message_bytes": 64, "partitions": 1},
              "sizes": [64], "counts": [1], "sample": True})
    @example({"base": {"message_bytes": 64, "partitions": 1,
                       "compute_seconds": 0},
              "sizes": [1 << 20], "counts": [1 << 20]})
    def test_sweep_request(self, payload):
        _parses_or_400(parse_sweep_request, payload)


# ---------------------------------------------------------------------------
# Scheduler: quotas, priorities, shutdown
# ---------------------------------------------------------------------------

def _wait_until_taken(scheduler, timeout=10.0):
    """Spin until the dispatcher has popped everything queued so far."""
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

    def test_failing_cell_fails_only_its_own_requests(self, tmp_path,
                                                      monkeypatch):
        """A good and a failing config in one batch: the good one is
        answered, only the failing one gets the 500."""
        from repro.service import scheduler as module
        real = module.run_cells

        def flaky(configs, **kwargs):
            if any(config.seed == 666 for config in configs):
                raise RuntimeError("cell 666 exploded")
            return real(configs, **kwargs)

        monkeypatch.setattr(module, "run_cells", flaky)
        scheduler = SweepScheduler(cache=ResultCache(tmp_path / "c"),
                                   quota=64, batch_window=0.0,
                                   dispatchers=1)
        try:
            with scheduler._cv:    # both land in one batch
                good = scheduler.submit(_base(seed=1))
                bad = scheduler.submit(_base(seed=666))
            assert scheduler.wait(good, timeout=60.0).event_digest
            with pytest.raises(ServiceError) as err:
                scheduler.wait(bad, timeout=60.0)
            assert err.value.status == 500
            assert "cell 666 exploded" in err.value.reason
            stats = scheduler.stats.as_dict()
            assert (stats["batches"], stats["served"],
                    stats["failed"]) == (1, 1, 1)
        finally:
            scheduler.stop()

    @staticmethod
    def _held_run_cells(monkeypatch, fail=False):
        """Patch the scheduler's engine to park each call on a gate.

        Returns ``(entered, gate, calls)``: ``entered`` is set once a
        dispatcher is inside the engine, which waits for ``gate`` and
        then runs the batch (or raises, with ``fail``).
        """
        from repro.service import scheduler as module
        real = module.run_cells
        entered, gate, calls = threading.Event(), threading.Event(), []

        def held(configs, **kwargs):
            calls.append(len(configs))
            entered.set()
            assert gate.wait(30.0), "test never opened the gate"
            if fail:
                raise RuntimeError("leader cell exploded")
            return real(configs, **kwargs)

        monkeypatch.setattr(module, "run_cells", held)
        return entered, gate, calls

    def test_request_rides_a_running_leader_without_a_cache(
            self, monkeypatch):
        """Two dispatchers, no cache: the second request for a config
        still running in the other dispatcher rides it, so the config
        executes once."""
        entered, gate, calls = self._held_run_cells(monkeypatch)
        scheduler = SweepScheduler(jobs=1, quota=64, batch_window=0.0,
                                   dispatchers=2)
        EXECUTIONS.reset()
        try:
            leader = scheduler.submit(_base(seed=5), client="a")
            assert entered.wait(30.0), "leader never reached the engine"
            rider = scheduler.submit(_base(seed=5), client="b")
            _wait_until_taken(scheduler)    # the idle dispatcher cut it
            assert scheduler.inflight("b") == 1     # held until answered
            gate.set()
            first = scheduler.wait(leader, timeout=60.0)
            second = scheduler.wait(rider, timeout=60.0)
        finally:
            gate.set()
            scheduler.stop()
        assert EXECUTIONS.value == 1
        assert calls == [1]
        assert first.event_digest == second.event_digest is not None
        stats = scheduler.stats.as_dict()
        assert (stats["executed"], stats["singleflight_hits"],
                stats["served"], stats["batches"]) == (1, 1, 2, 1)
        assert scheduler.inflight() == 0

    def test_rider_of_a_failing_leader_gets_its_error(self, tmp_path,
                                                      monkeypatch):
        entered, gate, calls = self._held_run_cells(monkeypatch, fail=True)
        scheduler = SweepScheduler(cache=ResultCache(tmp_path / "c"),
                                   quota=64, batch_window=0.0,
                                   dispatchers=2)
        try:
            leader = scheduler.submit(_base(seed=6), client="a")
            assert entered.wait(30.0), "leader never reached the engine"
            rider = scheduler.submit(_base(seed=6), client="b")
            _wait_until_taken(scheduler)
            gate.set()
            errors = []
            for request in (leader, rider):
                with pytest.raises(ServiceError) as err:
                    scheduler.wait(request, timeout=60.0)
                errors.append((err.value.status, err.value.reason))
        finally:
            gate.set()
            scheduler.stop()
        assert errors[0] == errors[1]
        assert errors[0][0] == 500
        assert "leader cell exploded" in errors[0][1]
        assert calls == [1]
        stats = scheduler.stats.as_dict()
        assert (stats["failed"], stats["served"],
                stats["singleflight_hits"]) == (2, 0, 0)
        assert scheduler.inflight() == 0

    def test_jobs_below_one_rejected_at_construction(self, tmp_path):
        with pytest.raises(ServiceError, match="jobs must be >= 1: 0"):
            SweepScheduler(cache=ResultCache(tmp_path / "c"), jobs=0)

    def test_serve_with_jobs_zero_exits_before_binding(self, monkeypatch,
                                                       capsys):
        from repro.cli import main
        from repro.service import server

        def no_bind(*args, **kwargs):
            raise AssertionError("bound a port with --jobs 0")

        monkeypatch.setattr(server, "ThreadingHTTPServer", no_bind)
        assert main(["serve", "--port", "0", "--jobs", "0"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err


#: A ``repro serve --jobs 2`` daemon that reports, on stderr, how many
#: threads its process runs at each fork.
_COUNTING_FORKS = """
import os, sys, threading
from repro.cli import main
fork = os.fork
def counting_fork():
    print(f"fork {threading.active_count()}", file=sys.stderr, flush=True)
    return fork()
os.fork = counting_fork
sys.exit(main(["serve", "--port", "0", "--jobs", "2"]))
"""


def test_serve_forks_its_workers_before_any_thread_starts():
    """Forking a multi-threaded process can deadlock the child, so the
    daemon forks its pool's workers before its dispatcher and HTTP
    threads start, and a cold request forks nothing more."""
    import repro
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(repro.__file__)))
    daemon = subprocess.Popen([sys.executable, "-c", _COUNTING_FORKS],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env)
    try:
        url = daemon.stdout.readline().split()[2]
        with ServiceClient(url) as client:
            assert client.trial(_payload(seed=7))["source"] == "des"
    finally:
        daemon.terminate()
        _, err = daemon.communicate(timeout=60)
    forks = [int(line.split()[1]) for line in err.splitlines()
             if line.startswith("fork ")]
    assert forks == [1, 1], err


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
        with err.value:
            payload = json.loads(err.value.read())
        assert payload["error"]["status"] == 400
        assert "partitons" in payload["error"]["reason"]

    @staticmethod
    def _refused_field(daemon, **field):
        """POST a trial whose config carries ``field``; the 400's reason."""
        service, _, _ = daemon
        host, port = service.address
        body = json.dumps({"config": _payload(**field)}).encode()
        request = urllib.request.Request(
            f"http://{host}:{port}/trial", data=body,
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30.0)
        assert err.value.code == 400
        with err.value:
            return json.loads(err.value.read())["error"]["reason"]

    def test_config_with_faults_is_a_structured_400(self, daemon):
        """The protocol has no fault field: a request that still sends
        one is refused by name, not run as a clean trial."""
        assert "unknown config field(s) ['faults']" in \
            self._refused_field(daemon, faults="drop=0.2")

    def test_config_with_impl_is_a_structured_400(self, daemon):
        """There is one partitioned implementation: a request that still
        names one is refused by name (protocol 3)."""
        assert "unknown config field(s) ['impl']" in \
            self._refused_field(daemon, impl="mpipcl")

    def test_bad_request_does_not_fail_its_batch(self, tmp_path):
        """A config the engine cannot run is a 400 at parse time, so the
        valid request batched alongside it still answers 200."""
        scheduler = SweepScheduler(cache=ResultCache(tmp_path / "c"),
                                   jobs=1, quota=64, batch_window=0.05,
                                   dispatchers=1)
        service = serve(scheduler, port=0)
        host, port = service.address
        overflowing = _payload(compute_ms=1e300)
        del overflowing["compute_seconds"]
        bodies = [{"config": overflowing}, {"config": _payload()}]
        codes = [None, None]

        def post(i):
            request = urllib.request.Request(
                f"http://{host}:{port}/trial",
                data=json.dumps(bodies[i]).encode(),
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request, timeout=60.0) as resp:
                    codes[i] = resp.status
            except urllib.error.HTTPError as exc:
                codes[i] = exc.code
                exc.close()

        try:
            threads = [threading.Thread(target=post, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            service.stop()
        assert codes == [400, 200]

    def test_invalid_json_is_a_400(self, daemon):
        service, _, _ = daemon
        host, port = service.address
        request = urllib.request.Request(
            f"http://{host}:{port}/trial", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30.0)
        assert err.value.code == 400
        with err.value:
            assert "JSON" in json.loads(err.value.read())["error"]["reason"]

    def test_unknown_endpoint_is_a_404(self, daemon):
        service, _, _ = daemon
        host, port = service.address
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"http://{host}:{port}/nope",
                                   timeout=30.0)
        err.value.close()
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


# ---------------------------------------------------------------------------
# Transport: kept-alive connections between the client and the daemon
# ---------------------------------------------------------------------------

def _count_connections(monkeypatch):
    """Record every connection the daemon accepts from now on."""
    accepted = []
    setup = server._Handler.setup

    def counting(handler):
        accepted.append(handler.request)
        setup(handler)

    monkeypatch.setattr(server._Handler, "setup", counting)
    return accepted


def _exchange_raw(service, request: bytes) -> bytes:
    """Send raw bytes; return everything read until the daemon closes."""
    import socket
    with socket.create_connection(service.address, timeout=10.0) as sock:
        sock.sendall(request)
        received = b""
        while True:
            chunk = sock.recv(65536)    # a timeout here: never closed
            if not chunk:
                return received
            received += chunk


class TestTransport:
    def test_requests_on_one_client_share_one_connection(self, daemon,
                                                         monkeypatch):
        import socket
        service, _, _ = daemon
        accepted = _count_connections(monkeypatch)
        client = _client(service)
        for seed in range(3):
            client.trial(_payload(seed=seed))
            client.healthz()
        client.stats()
        assert len(accepted) == 1
        # The daemon's writes are not held back for the client's ACK.
        assert accepted[0].getsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY)

    def test_idle_connection_closed_by_daemon_is_retried(self, daemon,
                                                         monkeypatch):
        service, _, _ = daemon
        monkeypatch.setattr(server._Handler, "timeout", 0.1)
        accepted = _count_connections(monkeypatch)
        client = _client(service)
        client.healthz()
        connection = client._connection()
        deadline = time.monotonic() + 10.0
        while service._connections:     # the daemon times it out
            assert time.monotonic() < deadline, "idle connection kept"
            time.sleep(0.01)
        assert connection.sock is not None    # the client never noticed
        assert client.healthz()["status"] == "ok"
        assert len(accepted) == 2

    def test_error_statuses_keep_their_exception_types(self, daemon,
                                                       tmp_path,
                                                       monkeypatch):
        import socket
        service, _, _ = daemon
        client = _client(service)

        def raised(call):
            with pytest.raises(ServiceError) as err:
                call()
            return type(err.value), err.value.status

        assert raised(lambda: client.trial({"partitons": 4})) == \
            (ProtocolError, 400)
        assert raised(lambda: client._request("/nope")) == \
            (ServiceError, 404)
        too_big = {"pad": "x" * server.MAX_BODY_BYTES}
        assert raised(lambda: client.trial(too_big)) == (ServiceError, 413)
        monkeypatch.setattr(
            "repro.service.scheduler.run_cells",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        assert raised(lambda: client.trial(_payload(seed=99))) == \
            (ServiceError, 500)
        assert client.healthz()["status"] == "ok"   # still usable
        greedy = SweepScheduler(cache=ResultCache(tmp_path / "q"), quota=0)
        other = serve(greedy, port=0)
        try:
            assert raised(lambda: _client(other).trial(_payload())) == \
                (QuotaError, 429)
        finally:
            other.stop()
        with socket.socket() as probe:     # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with ServiceClient(f"http://127.0.0.1:{port}") as nobody:
            assert raised(nobody.healthz) == (ServiceError, 503)

    def test_threads_share_one_client(self, daemon, monkeypatch):
        """More threads than cores on one client, switching often: each
        gets its own connection and every request is answered."""
        import sys
        service, _, _ = daemon
        accepted = _count_connections(monkeypatch)
        client = _client(service)
        answers = []
        threads = [threading.Thread(
            target=lambda: answers.extend(client.healthz()
                                          for _ in range(20)))
            for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(answers) == 80
        assert len(accepted) == len(client._connections) == 4

    def test_stop_closes_open_connections(self, tmp_path):
        service = serve(SweepScheduler(cache=ResultCache(tmp_path / "c")),
                        port=0)
        client = _client(service)
        client.healthz()
        handlers = [t for t in threading.enumerate()
                    if t.name.endswith("(process_request_thread)")]
        assert handlers
        service.stop()
        with pytest.raises(ServiceError) as err:
            client.healthz()
        assert err.value.status == 503
        assert not any(t.is_alive() for t in handlers)

    @pytest.mark.parametrize("head, status", [
        (b"POST /trial HTTP/1.1\r\nHost: x\r\n"
         b"Content-Length: 5000000\r\n\r\n", 413),
        (b"POST /trial HTTP/1.1\r\nHost: x\r\n\r\n", 400),
        (b"POST /trial HTTP/1.1\r\nHost: x\r\n"
         b"Content-Length: -1\r\n\r\n", 400),
        (b"POST /nope HTTP/1.1\r\nHost: x\r\n"
         b"Content-Length: 34\r\n\r\n", 404),
    ], ids=["oversized", "no-length", "negative-length",
            "unknown-endpoint"])
    def test_unread_body_is_never_parsed_as_a_request(self, daemon, head,
                                                      status):
        """A response sent before the body was read closes the
        connection: the body's bytes never run as a second request."""
        service, _, _ = daemon
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        received = _exchange_raw(service, head + smuggled)
        assert received.startswith(b"HTTP/1.1 %d " % status)
        assert received.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in received
