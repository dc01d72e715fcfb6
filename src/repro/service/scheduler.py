"""The daemon's scheduler: admission, batching, and engine dispatch.

Requests arrive one at a time from many HTTP handler threads; the
simulation engine is at its best when handed *grids* (one pool run
per grid, single-flight within it).  The scheduler is the adapter between those
shapes, and the one place that runs the engine concurrently:

* **Admission** enforces a per-client in-flight quota — the one knob
  that keeps a single greedy client from parking everyone else's
  requests behind its own (:class:`~repro.service.protocol.QuotaError`
  becomes the daemon's 429).
* **A priority queue** orders admitted requests (higher ``priority``
  first, FIFO within a priority), so an interactive probe can overtake
  a bulk replay.
* **Batching**: a dispatcher thread cuts the queue into batches — it
  takes what is queued, waits at most ``batch_window`` seconds for
  stragglers, and hands the batch to
  :func:`~repro.core.parallel.run_cells` as one grid.
* **Coalescing**: a fingerprint executes **once** however a herd lands.
  While it cuts a batch, a dispatcher attaches each request whose
  fingerprint is already running, in this batch or in another
  dispatcher's, to that request (its *leader*) instead of adding it to
  the batch.  A leader stays registered until it is answered, which is
  after ``run_cells`` stored its result, so any later request is a
  cache hit.  Riders take the leader's result or error and count as
  ``singleflight_hits``.

Every request's result is published through a per-request event, so
handler threads block only on their own request.  Engine failures fan
back as per-request errors — a batch that raised is re-run one request
at a time, so only the requests whose own cell raised fail — and the
dispatcher itself never dies.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.config import PtpBenchmarkConfig
from ..core.parallel import (ResultCache, SweepStats, config_fingerprint,
                             run_cells)
from ..core.pool import WorkerPool
from ..core.runner import PtpResult
from ..obs import EventBus
from ..obs.kinds import (SERVICE_BATCH, SERVICE_QUOTA_REJECT,
                         SERVICE_REQUEST, SERVICE_RESPONSE)
from .protocol import QuotaError, ServiceError

__all__ = ["SchedulerStats", "SweepScheduler"]

#: How long a dispatcher waits for more requests after the first one of
#: a batch arrived — the window in which a herd coalesces into one grid.
DEFAULT_BATCH_WINDOW = 0.005

#: Ceiling on requests per dispatched batch.
DEFAULT_MAX_BATCH = 64

#: Default per-client in-flight quota.
DEFAULT_QUOTA = 16


@dataclass
class SchedulerStats:
    """Lifetime counters of one scheduler (the ``/stats`` payload)."""

    #: Requests admitted past the quota gate.
    requests: int = 0
    #: Requests answered with a result.
    served: int = 0
    #: Requests that failed inside the engine.
    failed: int = 0
    #: Requests bounced by the per-client quota (the 429s).
    rejected_quota: int = 0
    #: Batches dispatched to the engine, failed ones included.
    batches: int = 0
    #: Every successful batch's engine provenance, summed.
    sweep: SweepStats = field(default_factory=SweepStats)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def bump(self, name: str, amount: int = 1) -> None:
        """Atomically increment the counter called ``name``."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def absorb(self, stats: SweepStats) -> None:
        """Fold one engine run's provenance into the lifetime total."""
        with self._lock:
            self.sweep.absorb(stats)

    def as_dict(self) -> Dict[str, int]:
        """Consistent snapshot of every counter, for ``/stats``."""
        with self._lock:
            return {
                "requests": self.requests,
                "served": self.served,
                "failed": self.failed,
                "rejected_quota": self.rejected_quota,
                "batches": self.batches,
                "executed": self.sweep.executed,
                "cache_hits": self.sweep.cache_hits,
                "singleflight_hits": self.sweep.singleflight_hits,
                "analytic": self.sweep.analytic,
                "trials": self.sweep.trials,
            }


class _Request:
    """One admitted request travelling through the scheduler."""

    __slots__ = ("seq", "priority", "client", "config", "fingerprint",
                 "event", "result", "error", "admitted_at", "riders")

    def __init__(self, seq: int, priority: int, client: str,
                 config: PtpBenchmarkConfig, admitted_at: float) -> None:
        self.seq = seq
        self.priority = priority
        self.client = client
        self.config = config
        self.fingerprint = config_fingerprint(config)
        self.event = threading.Event()
        self.result: Optional[PtpResult] = None
        self.error: Optional[BaseException] = None
        self.admitted_at = admitted_at
        #: Requests for the same fingerprint answered with this one.
        self.riders: List[_Request] = []

    def sort_key(self):
        # Higher priority first; FIFO (by admission sequence) within.
        return (-self.priority, self.seq)


class SweepScheduler:
    """Batches admitted requests onto the shared engine backend.

    Parameters
    ----------
    pool / cache / jobs / analytic:
        The engine backend, passed straight to
        :func:`~repro.core.parallel.run_cells`.  A live ``pool`` keeps
        its warm workers across every batch (the daemon's normal mode);
        ``jobs=1`` with no pool executes inline in dispatcher threads.
        The cache turns a repeated request into a hit; concurrent
        identical requests coalesce without one.
    quota:
        Per-client in-flight ceiling (queued + executing).  ``0``
        rejects everything — useful for drain mode and tests.
    batch_window / max_batch:
        Batching shape: after the first queued request is picked up,
        the dispatcher waits up to ``batch_window`` seconds (collecting
        at most ``max_batch`` requests) before cutting the batch.
    dispatchers:
        Dispatcher threads.  More than one lets an expensive batch
        overlap a cheap one; a request whose fingerprint is running in
        another dispatcher's batch rides it.
    """

    def __init__(self, pool: Optional[WorkerPool] = None,
                 cache: Optional[ResultCache] = None,
                 jobs: int = 1,
                 analytic: str = "off",
                 quota: int = DEFAULT_QUOTA,
                 batch_window: float = DEFAULT_BATCH_WINDOW,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 dispatchers: int = 2,
                 ) -> None:
        if quota < 0:
            raise ServiceError(f"quota must be >= 0: {quota}", status=500)
        if max_batch < 1:
            raise ServiceError(
                f"max_batch must be >= 1: {max_batch}", status=500)
        if dispatchers < 1:
            raise ServiceError(
                f"dispatchers must be >= 1: {dispatchers}", status=500)
        if jobs < 1:
            raise ServiceError(f"jobs must be >= 1: {jobs}", status=500)
        self.pool = pool
        self.cache = cache
        self.jobs = jobs
        self.analytic = analytic
        self.quota = quota
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.stats = SchedulerStats()
        #: Host-side ``service.*`` lifecycle events.
        self.obs = EventBus()
        self._t0 = time.monotonic()  # simlint: disable=SIM101
        self._seq = itertools.count()
        self._queue: List[tuple] = []  # heap of (sort_key, _Request)
        self._cv = threading.Condition()
        self._inflight: Dict[str, int] = {}
        #: fingerprint -> the request running it, from the batch cut
        #: until the request is answered.
        self._leaders: Dict[str, _Request] = {}
        self._stopped = False
        self._threads = [
            threading.Thread(target=self._dispatch_loop,
                             name=f"repro-service-d{i}", daemon=True)
            for i in range(dispatchers)
        ]
        for thread in self._threads:
            thread.start()

    def _now(self) -> float:
        return time.monotonic() - self._t0  # simlint: disable=SIM101

    # -- admission ---------------------------------------------------------

    def submit(self, config: PtpBenchmarkConfig, client: str = "anonymous",
               priority: int = 0) -> _Request:
        """Admit one request (quota-gated) onto the priority queue.

        Raises :class:`~repro.service.protocol.QuotaError` when the
        client already has ``quota`` requests in flight.  The returned
        handle is resolved by a dispatcher; wait on it with
        :meth:`wait`.
        """
        with self._cv:
            if self._stopped:
                raise ServiceError("scheduler is shut down", status=503)
            held = self._inflight.get(client, 0)
            if held >= self.quota:
                self.stats.bump("rejected_quota")
                self.obs.emit(SERVICE_QUOTA_REJECT, self._now(), client,
                              held, self.quota)
                raise QuotaError(client, held, self.quota)
            self._inflight[client] = held + 1
            request = _Request(next(self._seq), priority, client, config,
                               self._now())
            heapq.heappush(self._queue, (request.sort_key(), request))
            self.stats.bump("requests")
            self.obs.emit(SERVICE_REQUEST, request.admitted_at, client,
                          priority, request.fingerprint)
            self._cv.notify()
        return request

    def wait(self, request: _Request,
             timeout: Optional[float] = None) -> PtpResult:
        """Block until ``request`` is answered; re-raise its failure."""
        if not request.event.wait(timeout):
            raise ServiceError(
                f"request for {request.fingerprint[:12]}… timed out "
                f"after {timeout:g}s", status=504)
        if request.error is not None:
            error = request.error
            if isinstance(error, ServiceError):
                raise error
            raise ServiceError(f"{type(error).__name__}: {error}",
                               status=500)
        assert request.result is not None
        return request.result

    def execute(self, config: PtpBenchmarkConfig,
                client: str = "anonymous", priority: int = 0,
                timeout: Optional[float] = None) -> PtpResult:
        """Admit, wait, and return — the one-call path handlers use."""
        return self.wait(self.submit(config, client, priority), timeout)

    # -- dispatch ----------------------------------------------------------

    def _take_batch(self) -> Optional[List[_Request]]:
        """Block for the next batch (None when the scheduler stops).

        The batch holds only leaders, so it is empty when every request
        popped rode one already running.
        """
        with self._cv:
            while not self._queue:
                if self._stopped:
                    return None
                self._cv.wait()
            batch: List[_Request] = []
            self._cut(batch)
            # The batching window: give the rest of a herd a moment to
            # land so it rides the same grid.
            deadline = time.monotonic() + self.batch_window  # simlint: disable=SIM101
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()  # simlint: disable=SIM101
                if self._queue:
                    self._cut(batch)
                elif self._stopped or remaining <= 0:
                    break
                else:
                    self._cv.wait(remaining)
            queued = len(self._queue)
        if batch:
            self.obs.emit(SERVICE_BATCH, self._now(), len(batch), queued)
        return batch

    def _cut(self, batch: List[_Request]) -> None:
        """Pop the next request into ``batch`` or onto its leader.

        Called under ``_cv``, which also guards every leader's riders.
        """
        request = heapq.heappop(self._queue)[1]
        leader = self._leaders.get(request.fingerprint)
        if leader is None:
            self._leaders[request.fingerprint] = request
            batch.append(request)
        else:
            leader.riders.append(request)

    def _finish(self, request: _Request) -> None:
        """Answer ``request`` and its riders; release their quota."""
        with self._cv:
            if self._leaders.get(request.fingerprint) is request:
                del self._leaders[request.fingerprint]
            group = [request, *request.riders]
            for each in group:
                held = self._inflight.get(each.client, 0) - 1
                if held > 0:
                    self._inflight[each.client] = held
                else:
                    self._inflight.pop(each.client, None)
        if request.error is None:
            self.stats.bump("served", len(group))
            if request.riders:
                self.stats.absorb(
                    SweepStats(singleflight_hits=len(request.riders)))
            now = self._now()
            for each in group:
                self.obs.emit(SERVICE_RESPONSE, now, each.client,
                              each.fingerprint, now - each.admitted_at)
        else:
            self.stats.bump("failed", len(group))
        for each in group:
            each.result, each.error = request.result, request.error
            each.event.set()

    def _run_batch(self, batch: List[_Request]) -> None:
        self.stats.bump("batches")
        self._run(batch, isolate=len(batch) > 1)

    def _run(self, requests: List[_Request], isolate: bool) -> None:
        try:
            results, stats = run_cells(
                [r.config for r in requests], jobs=self.jobs,
                cache=self.cache, analytic=self.analytic, pool=self.pool)
        except Exception as exc:
            if isolate:
                # One cell's failure must not fail its batch-mates: run
                # each request alone, so only those whose own cell
                # raises get the error (cells already stored are hits).
                for request in requests:
                    self._run([request], isolate=False)
                return
            # An engine bug or dead pool: the requester gets the error;
            # the dispatcher survives.
            for request in requests:
                request.error = exc
                self._finish(request)
            return
        self.stats.absorb(stats)
        for request, result in zip(requests, results):
            request.result = result
            self._finish(request)

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            if batch:
                self._run_batch(batch)

    # -- lifecycle ---------------------------------------------------------

    def inflight(self, client: Optional[str] = None) -> int:
        """In-flight requests for one client (or every client)."""
        with self._cv:
            if client is not None:
                return self._inflight.get(client, 0)
            return sum(self._inflight.values())

    def stop(self, timeout: float = 5.0) -> None:
        """Drain-free shutdown: pending requests are failed, not run."""
        with self._cv:
            if self._stopped:
                return
            self._stopped = True
            pending = [entry[1] for entry in self._queue]
            self._queue.clear()
            self._cv.notify_all()
        for request in pending:
            request.error = ServiceError("scheduler shut down before the "
                                         "request ran", status=503)
            self._finish(request)
        for thread in self._threads:
            thread.join(timeout=timeout)
