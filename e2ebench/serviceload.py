"""The ``service-mixed`` workload: a closed loop of clients on ``repro serve``.

Two client threads each send their next ``POST /trial`` only after the
previous one answered.  Every twentieth request of a client is *cold*: a
config with a fresh seed, so the daemon simulates it.  The rest are *hot*:
one of a fixed set of configs answered before timing starts, so the daemon
serves them from its cache's memory tier.  A pass is a fixed number of
requests; the run repeats passes until its time is measured.

The seed draws every config's seed and the order of hot requests.  The
shapes (message size, partitions, compute) cycle through a fixed list and
cold requests sit at fixed positions, so every seed costs the daemon the
same work.

The daemon runs as ``repro serve --jobs 1`` in its own process.  With
``--jobs 2`` and the default two dispatchers, concurrent batches each open
a pool session; a request has been seen never to return in that mode, so
this workload does not use it.  The traced run serves in-process through
:func:`repro.service.serve` so that every thread can be profiled.
"""

from __future__ import annotations

import bisect
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import layers
from common import (ROOT, SETUP_REPEATS, WORK, RunRecord, child_env,
                    dir_bytes, fresh_dir, percentile)

#: The config space requests draw from.
_SIZES = (4096, 65536, 1 << 20)
_COUNTS = (2, 4, 8, 16)
_COMPUTE_MS = (1.0, 10.0)
#: One request in this many is cold.
COLD_EVERY = 20
#: Client threads (the closed loop's population).
CLIENTS = 2
#: Per-request client timeout; a timeout counts as a failed request.
REQUEST_TIMEOUT = 10.0

#: (hot configs, requests per pass) per size.
_SHAPE = {"full": (30, 400), "tiny": (4, 40)}


def _config(point: Tuple[int, int, float], seed: int) -> Dict:
    m, n, compute_ms = point
    return {"message_bytes": m, "partitions": n, "compute_ms": compute_ms,
            "noise": "uniform", "noise_percent": 4.0, "iterations": 3,
            "warmup": 1, "seed": seed}


class RequestMix:
    """Seeded request generator: the hot set and a stream of cold configs."""

    def __init__(self, seed: int, size: str) -> None:
        self.rng = random.Random(f"{seed}/service")
        hot_count, self.per_pass = _SHAPE[size]
        self.points = [(m, n, c) for m in _SIZES for n in _COUNTS
                       for c in _COMPUTE_MS]
        self.hot = [_config(self.points[i % len(self.points)],
                            self.rng.randrange(1 << 31))
                    for i in range(hot_count)]
        self._seeds = {cfg["seed"] for cfg in self.hot}
        self._cold = 0

    def _next_cold(self) -> Dict:
        seed = self.rng.randrange(1 << 31)
        while seed in self._seeds:
            seed = self.rng.randrange(1 << 31)
        self._seeds.add(seed)
        # Cycle the config space so every run has the same cold cost mix.
        point = self.points[self._cold % len(self.points)]
        self._cold += 1
        return _config(point, seed)

    def next_pass(self) -> List[List[Tuple[bool, Dict]]]:
        """Per-client ``(is_hot, config)`` lists for one pass."""
        share = self.per_pass // CLIENTS
        return [[(False, self._next_cold())
                 if (j + c * COLD_EVERY // CLIENTS) % COLD_EVERY == 0
                 else (True, self.rng.choice(self.hot))
                 for j in range(share)]
                for c in range(CLIENTS)]


class _Client(threading.Thread):
    """One closed-loop client replaying its list."""

    def __init__(self, url: str, index: int, requests) -> None:
        super().__init__(name=f"e2ebench-client-{index}", daemon=True)
        from repro.service import ServiceClient
        self.client = ServiceClient(url, client_id=f"e2ebench-{index}",
                                    timeout=REQUEST_TIMEOUT)
        self.requests = requests
        #: (is_hot, config, seconds, payload or None, error or "")
        self.done: List[Tuple[bool, Dict, float, object, str]] = []

    def run(self) -> None:
        from repro.service import ServiceError
        for hot, config in self.requests:
            start = time.perf_counter()
            try:
                payload = self.client.trial(config)
                error = ""
            except (ServiceError, OSError, ValueError) as exc:
                payload, error = None, f"{type(exc).__name__}: {exc}"
            self.done.append((hot, config, time.perf_counter() - start,
                              payload, error))


class Loop:
    """Drives passes against one daemon URL and keeps every answer."""

    def __init__(self, url: str, mix: RequestMix) -> None:
        self.url = url
        self.mix = mix
        self.answers: List[Tuple[bool, Dict, float, object, str]] = []

    def prefill(self, rounds: int = 2) -> None:
        """Ask for every hot config: once to compute, then from memory."""
        from repro.service import ServiceClient
        client = ServiceClient(self.url, client_id="e2ebench-prefill",
                               timeout=60.0)
        for _ in range(rounds):
            for config in self.mix.hot:
                client.trial(config)

    def one_pass(self, rec: RunRecord) -> float:
        clients = [_Client(self.url, c, requests)
                   for c, requests in enumerate(self.mix.next_pass())]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            # Every request is bounded by its own timeout.
            client.join(len(client.requests) * REQUEST_TIMEOUT + 5.0)
        wall = time.perf_counter() - start
        rec.start_pass()
        for client in clients:
            done = list(client.done)
            for answer in done:
                self.record(rec, answer)
            missing = len(client.requests) - len(done)
            if missing:
                rec.attempted += missing
                rec.fail(f"{client.name} did not finish its pass", missing)
        return wall

    def record(self, rec: RunRecord, answer) -> None:
        hot, config, seconds, payload, error = answer
        rec.attempted += 1
        self.answers.append(answer)
        if error:
            rec.op(max(seconds, REQUEST_TIMEOUT))
            rec.fail(error)
            return
        rec.op(seconds)
        if payload.get("source") != "des" or \
                payload.get("n_samples") != config["iterations"]:
            rec.fail(f"unexpected answer for {config}: "
                     f"source={payload.get('source')} "
                     f"n_samples={payload.get('n_samples')}")


def check_answers(rec: RunRecord, loop: Loop, seed: int,
                  samples: int = 5) -> None:
    """One digest per fingerprint; sampled answers equal local runs."""
    from repro.core.parallel import config_fingerprint
    from repro.core.runner import run_ptp_benchmark
    from repro.service import config_from_payload
    by_fingerprint = defaultdict(set)
    answered = [a for a in loop.answers if not a[4]]
    for _, _, _, payload, _ in answered:
        by_fingerprint[payload["fingerprint"]].add(payload["event_digest"])
    for fingerprint, digests in by_fingerprint.items():
        if len(digests) != 1:
            count = sum(1 for a in answered
                        if a[3]["fingerprint"] == fingerprint)
            rec.fail(f"{fingerprint[:12]} answered with {len(digests)} "
                     f"different digests", count)
    rng = random.Random(f"{seed}/service/check")
    hot = [a for a in answered if a[0]]
    cold = [a for a in answered if not a[0]]
    picks = rng.sample(hot, min(2, len(hot))) + \
        rng.sample(cold, min(samples - 2, len(cold)))
    for _, config, _, payload, _ in picks:
        local = config_from_payload(config)
        result = run_ptp_benchmark(local)
        if config_fingerprint(local) != payload["fingerprint"] or \
                result.event_digest != payload["event_digest"]:
            rec.fail(f"served answer for {config} differs from a local run")


def _extras(rec: RunRecord, loop: Loop) -> None:
    hot = [a[2] for a in loop.answers if a[0] and not a[4]]
    cold = [a[2] for a in loop.answers if not a[0] and not a[4]]
    rec.extras.update({
        "hot_p50_ms": 1e3 * percentile(hot, 50) if hot else 0.0,
        "hot_p99_ms": 1e3 * percentile(hot, 99) if hot else 0.0,
        "cold_p50_ms": 1e3 * percentile(cold, 50) if cold else 0.0,
        "cold_p90_ms": 1e3 * percentile(cold, 90) if cold else 0.0,
        "throughput_rps": rec.attempted / sum(rec.passes),
        "hot_requests": len(hot),
        "cold_requests": len(cold),
    })


# ---------------------------------------------------------------------------
# The daemon in its own process
# ---------------------------------------------------------------------------

def boot_daemon(index: int):
    """Start ``repro serve --jobs 1`` and wait until it answers."""
    from repro.service import ServiceClient, ServiceError
    cache_dir = fresh_dir(f"service-cache-{index}")
    log = open(WORK / f"daemon-{index}.log", "w")
    command = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--jobs", "1", "--cache-dir", str(cache_dir)]
    process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                               stdout=subprocess.PIPE, stderr=log,
                               text=True)
    log.close()
    try:
        line = process.stdout.readline()
        if "http://" not in line:
            raise RuntimeError(f"daemon failed to boot: {line!r}")
        url = line.split()[2]
        client = ServiceClient(url, timeout=2.0)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                client.healthz()
                return process, url
            except (ServiceError, OSError):
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon never answered /healthz")
                time.sleep(0.002)
    except BaseException:
        stop_daemon(process)
        raise


def stop_daemon(process) -> None:
    """Terminate the daemon and reap it."""
    process.terminate()
    try:
        process.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


def run_service_mixed(args, pins: Dict) -> RunRecord:
    if args.trace:
        return _trace_service(args)
    from repro.service import ServiceClient
    rec = RunRecord()
    process = None
    try:
        for index in range(SETUP_REPEATS):
            if process is not None:
                stop_daemon(process)
            start = time.perf_counter()
            process, url = boot_daemon(index)
            rec.setup_s.append(time.perf_counter() - start)
        mix = RequestMix(args.seed, args.size)
        loop = Loop(url, mix)
        loop.prefill()
        before = ServiceClient(url).stats()["scheduler"]
        measured = 0.0
        while measured < args.seconds or not rec.passes:
            wall = loop.one_pass(rec)
            rec.passes.append(wall)
            measured += wall
        after = ServiceClient(url).stats()["scheduler"]
    finally:
        if process is not None:
            stop_daemon(process)
    check_answers(rec, loop, args.seed)
    distinct = len({a[3]["fingerprint"] for a in loop.answers if not a[4]})
    if after["failed"] != before["failed"]:
        rec.fail("the daemon counted failed requests",
                 after["failed"] - before["failed"])
    if after["executed"] - before["executed"] > distinct:
        rec.fail("the daemon executed a fingerprint more than once")
    _extras(rec, loop)
    return rec


# ---------------------------------------------------------------------------
# The traced run: the daemon in-process, every thread profiled
# ---------------------------------------------------------------------------

def _in_process(cache_dir, mix: RequestMix):
    from repro.core.parallel import ResultCache
    from repro.service import SweepScheduler, serve
    cache = ResultCache(cache_dir)
    # The CLI's defaults for ``repro serve --jobs 1``.
    scheduler = SweepScheduler(cache=cache, jobs=1)
    service = serve(scheduler, port=0)
    host, port = service.address
    return service, cache, Loop(f"http://{host}:{port}", mix)


def _trace_service(args) -> RunRecord:
    from repro.core.runner import run_ptp_trial
    from repro.service import config_from_payload
    rec = RunRecord()
    mix = RequestMix(args.seed, args.size)
    cache_dir = fresh_dir("service-cache-traced")
    start = time.perf_counter()
    service, _, loop = _in_process(cache_dir, mix)
    rec.setup_s.append(time.perf_counter() - start)
    try:
        loop.prefill()
        rec.passes.append(loop.one_pass(rec))
    finally:
        service.stop()
    with layers.ThreadProfiler() as profiler:
        service, cache, traced = _in_process(cache_dir, mix)
        try:
            traced.prefill(rounds=1)  # reload the memory tier
            events = service.scheduler.obs.record("service.*")
            stats0 = service.scheduler.stats.as_dict()
            cache0 = cache.stats()
            inner = RunRecord()
            traced_wall = traced.one_pass(inner)
            stats1 = service.scheduler.stats.as_dict()
            cache1 = cache.stats()
        finally:
            service.stop()
    rec.attempted += inner.attempted
    rec.failed += inner.failed
    rec.problems += inner.problems
    table = profiler.stats()
    metrics = layers.empty_metrics()
    metrics.update(layers.profile_metrics(table))
    # DES counts: replay the pass's cold configs with a counter attached.
    counter = layers.kind_counter()
    sim_events = 0
    for hot, config, _, payload, error in traced.answers:
        metrics["metrics.samples"] += payload["n_samples"] if payload else 0
        if hot or error:
            continue
        result, cluster = run_ptp_trial(config_from_payload(config),
                                        sinks=[counter])
        sim_events += cluster.sim.events_processed
        if result.event_digest != payload["event_digest"]:
            rec.fail(f"served answer for {config} differs from a local run")
    records = events.records
    batches = [r for r in records if r.kind.name == "service.batch"]
    batch_times = [r.time for r in batches]
    waits = []
    for r in records:
        if r.kind.name == "service.request":
            i = bisect.bisect_left(batch_times, r.time)
            if i < len(batch_times):
                waits.append(batch_times[i] - r.time)
    responses = [r.get("wait_seconds") for r in records
                 if r.kind.name == "service.response"]
    metrics.update(layers.des_counts(counter.counts, sim_events,
                                     metrics["sim.self_s"]))
    metrics.update({
        "wire.bytes": dir_bytes(cache_dir),
        "cache.hits": cache1["hits"] - cache0["hits"],
        "cache.misses": cache1["misses"] - cache0["misses"],
        "cache.stores": cache1["stores"] - cache0["stores"],
        "cache.memory_hits": cache1["memory_hits"] - cache0["memory_hits"],
        "service.batches": len(batches),
        "service.mean_batch": (statistics.mean(r.get("size")
                                               for r in batches)
                               if batches else 0.0),
        "service.queue_wait_ms": 1e3 * statistics.mean(waits)
        if waits else 0.0,
        "service.handler_ms": 1e3 * statistics.mean(responses)
        if responses else 0.0,
        "scheduler.executed": stats1["executed"] - stats0["executed"],
        "scheduler.cache_hits": stats1["cache_hits"] - stats0["cache_hits"],
        "scheduler.singleflight_hits": (stats1["singleflight_hits"]
                                        - stats0["singleflight_hits"]),
        "trace.overhead_s": traced_wall - rec.passes[0],
    })
    rec.layers = metrics
    rec.layer_report = layers.report("service-mixed", table, traced_wall,
                                     metrics)
    return rec

