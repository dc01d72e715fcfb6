"""The persistent worker pool: boot-once processes behind every sweep.

Before this subsystem existed, every ``--jobs N`` sweep paid a
``ProcessPoolExecutor`` spawn plus a full interpreter boot per sweep —
imports, interned event-kind tables, machine/topology model construction
— which dominates wall time now that the analytic fast path answers a
deterministic paper grid in tens of milliseconds.  Hunold &
Carpen-Amarie ("MPI Benchmarking Revisited") catalogue exactly this
failure mode in MPI micro-benchmarks: fixed per-experiment overhead that
swamps the quantity under study.

:class:`WorkerPool` is the manager half of a manager/worker architecture
(the shape of nengo-mpi's ``mpi_wake_workers``/``mpi_worker_start``
loop): long-lived worker processes that boot **once** and stay warm —
module imports, the process-wide interned :data:`repro.obs.SCHEMA`, and
every memoized machine/network model survive from sweep to sweep.  The
manager keeps one logical task deque per worker, hands out adaptively
sized *chunks* of tasks (many cheap cells or planner trials ride one
queue message; the chunk size tracks the observed per-task cost, so
expensive cells still dispatch one at a time), and lets an idle worker
*steal* from the most loaded peer, so a
skewed grid (one faulty or high-iteration cell among cheap ones) cannot
serialize the sweep behind a single worker.  Results stream back to the
manager incrementally as binary :mod:`~repro.core.wire` frames — each
cell's raw sample timelines plus its SHA-256 event digest, one packed
queue message per chunk — instead of arriving as one end-of-sweep
batch.

Determinism is untouched by any of this: a task is a fully resolved,
self-seeded :class:`~repro.core.config.PtpBenchmarkConfig`, so *which*
worker runs it, in *what* order, after *how many* steals, cannot change
a bit of its result.  The golden-digest and parallel-equivalence suites
enforce serial == ``--jobs N`` == reused-warm-pool, digest for digest.

Crash handling degrades structurally instead of hanging: a dead worker's
queued tasks are redistributed, its in-flight task is retried once on a
surviving worker, and a task that keeps killing workers (or a pool with
no survivors) runs inline in the manager, where an error surfaces as an
ordinary exception.  That inline drain is also the whole ``jobs=1``
path: a pool that never spawns a worker runs every task in the caller's
thread, through the same session and wire frame.  A session owns its
pool from first submit to drain, so concurrent sweeps on one pool take
turns instead of interleaving their task ids and epochs.

Everything the pool does is observable through ``pool.*`` typed kinds on
the pool's own :class:`~repro.obs.EventBus` (worker boots, dispatches,
steals, crashes, drains) — manager-side lifecycle telemetry, stamped
with host-monotonic seconds, deliberately outside the simulated event
streams that result digests seal.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from queue import Empty
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError, ReproError
from ..obs import EventBus
from ..obs.kinds import (POOL_DISPATCH, POOL_DISPATCH_BATCH, POOL_DRAIN,
                         POOL_RESULT, POOL_RESULT_BATCH, POOL_STEAL,
                         POOL_WORKER_BOOT, POOL_WORKER_CRASH)
from .config import PtpBenchmarkConfig
from .runner import run_ptp_benchmark
from .wire import encode_result

__all__ = ["PoolRunStats", "PoolTaskError", "WorkerPool", "shared_pool",
           "shutdown_shared_pool"]

#: How long the manager blocks on the result queue before polling worker
#: liveness.  Purely a crash-detection latency bound; correctness does
#: not depend on it.
_POLL_SECONDS = 0.2

#: Adaptive chunking: the manager grows a dispatch chunk until one chunk
#: costs roughly this much worker time.  Big enough to amortize the
#: per-message queue + pickling overhead over many cheap cells, small
#: enough that an idle peer can still steal a skewed grid's backlog.
_CHUNK_TARGET_SECONDS = 0.03

#: EMA weight for the observed per-task cost that drives chunk sizing.
_COST_EMA_ALPHA = 0.4

#: How worker processes start: fork where the platform has it (workers
#: inherit the manager's imports), spawn otherwise.
_START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                 else "spawn")

#: A task whose worker died this many times is run inline in the manager
#: instead of being redispatched (a poisoned cell must not assassinate
#: the whole pool one worker at a time).
_MAX_TASK_CRASHES = 2


class PoolTaskError(ReproError):
    """A task raised inside a worker process.

    Carries the worker-side traceback text; the original exception
    object does not cross the process boundary.
    """


def _execute(config: PtpBenchmarkConfig) -> bytes:
    """Run one config (in whichever process) as a :mod:`~repro.core.wire`
    frame: one bytes object the queue pickles in a single opcode."""
    return encode_result(run_ptp_benchmark(config))


def _worker_main(worker_id: int, tasks, results) -> None:
    """The worker loop: boot once, then run tasks until the stop sentinel.

    Booting means everything this module's imports pulled in — the DES
    kernel, the MPI runtime, the interned event-kind tables, the machine
    and network presets — is resident and warm for every task that
    follows.  Each message is ``(epoch, [(task_id, config), ...])`` — a
    *chunk* of one or more tasks riding a single queue message; the
    reply is one ``("results", worker_id, epoch, entries)`` message per
    chunk, where each entry is ``(task_id, frame)`` for a success or
    ``(task_id, ("error", message, traceback))`` for a task that raised
    (the loop itself never dies on a task exception).
    """
    results.put(("boot", worker_id, os.getpid()))
    while True:
        message = tasks.get()
        if message is None:
            return
        epoch, chunk = message
        entries = []
        for task_id, config in chunk:
            try:
                entries.append((task_id, _execute(config)))
            except Exception as exc:  # ships the traceback
                entries.append((task_id,
                                ("error", f"{type(exc).__name__}: {exc}",
                                 traceback.format_exc())))
        results.put(("results", worker_id, epoch, entries))


# ---------------------------------------------------------------------------
# Manager-side bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class PoolRunStats:
    """How one pool run (or a pool's lifetime) executed its tasks."""

    #: Tasks completed (including inline recoveries).
    tasks: int = 0
    #: Tasks executed by a worker that was already booted before the run
    #: started — the warm-pool payoff a cold spawn never sees.
    warm_tasks: int = 0
    #: Tasks a worker stole from a peer's queue instead of draining its
    #: own (nonzero under skewed grids).
    stolen_tasks: int = 0
    #: Workers booted during this run.
    booted_workers: int = 0
    #: Worker processes that died mid-run.
    crashed_workers: int = 0
    #: Tasks the manager ran inline (no live workers, or a task that
    #: kept crashing its workers).
    inline_tasks: int = 0
    #: Completed tasks per worker id.
    worker_tasks: Dict[int, int] = field(default_factory=dict)

    def absorb(self, other: "PoolRunStats") -> None:
        """Accumulate another run's counters (pool-lifetime totals)."""
        self.tasks += other.tasks
        self.warm_tasks += other.warm_tasks
        self.stolen_tasks += other.stolen_tasks
        self.booted_workers += other.booted_workers
        self.crashed_workers += other.crashed_workers
        self.inline_tasks += other.inline_tasks
        for worker_id, count in other.worker_tasks.items():
            self.worker_tasks[worker_id] = \
                self.worker_tasks.get(worker_id, 0) + count


class _Worker:
    """Manager-side handle for one worker process."""

    __slots__ = ("id", "process", "tasks", "queue", "booted", "busy",
                 "current", "epoch", "spawned_at", "dispatched_at")

    def __init__(self, worker_id: int, process, tasks) -> None:
        self.id = worker_id
        self.process = process
        self.tasks = tasks          # the worker's inbound task queue
        self.queue: deque = deque()  # manager-side backlog of task ids
        self.booted = False
        self.busy = False
        self.current: Optional[List[int]] = None  # in-flight chunk ids
        self.epoch = 0  # the session epoch ``current`` was dispatched in
        # Host clock, on purpose: pool lifecycle telemetry is
        # manager-side wall time, never simulated time.
        self.spawned_at = time.monotonic()  # simlint: disable=SIM101
        self.dispatched_at = self.spawned_at

    @property
    def load(self) -> int:
        """Queued plus in-flight tasks (the submit-placement key)."""
        return len(self.queue) + (1 if self.busy else 0)


class _PoolSession:
    """One streaming run over a :class:`WorkerPool`.

    ``submit()`` may be called while ``results()`` is being consumed —
    that is how the adaptive planner schedules follow-up trial batches
    as earlier ones stream in.  The first submit takes the pool (see
    :meth:`WorkerPool.session`); draining :meth:`results` or calling
    :meth:`close` gives it back.  Use the session as a context manager
    so that an abandoned run gives the pool back too.
    """

    def __init__(self, pool: "WorkerPool") -> None:
        self._pool = pool
        self.stats = PoolRunStats()
        self._owned = False
        self._epoch = 0
        #: Workers that were live when this run took the pool: tasks
        #: they complete are "warm" executions.
        self._warm_ids: set = set()
        self._payloads: Dict[int, PtpBenchmarkConfig] = {}
        self._keys: Dict[int, object] = {}
        self._crashes: Dict[int, int] = {}
        self._done: set = set()
        self._inline: deque = deque()  # task ids the manager will run
        self._ids = itertools.count()

    def __enter__(self) -> "_PoolSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- pool ownership ----------------------------------------------------

    def _take(self) -> None:
        pool = self._pool
        pool._lock.acquire()
        self._owned = True
        pool._epoch += 1
        self._epoch = pool._epoch
        self._warm_ids = set(pool._workers)

    def close(self) -> None:
        """Give the pool back (idempotent); undispatched tasks are dropped.

        The run's counters are added to the pool-lifetime ``pool.stats``
        here, once, while the session still owns the pool.

        Chunks already running on a worker finish there; their replies
        carry this run's epoch, so the next session frees the worker and
        discards the results.
        """
        if not self._owned:
            return
        self._owned = False
        pool = self._pool
        for worker in pool._workers.values():
            worker.queue.clear()
        pool.stats.absorb(self.stats)
        pool._lock.release()

    # -- submission --------------------------------------------------------

    def submit(self, key, config: PtpBenchmarkConfig) -> None:
        """Enqueue one task; results stream back under ``key``."""
        if not self._owned:
            self._take()
        task_id = next(self._ids)
        self._keys[task_id] = key
        self._payloads[task_id] = config
        pool = self._pool
        worker = pool._place(self)
        if worker is None:
            # No worker exists or can start: run inline — queued here,
            # *executed* when results() drains, so submit never
            # simulates.
            self._inline.append(task_id)
            return
        worker.queue.append(task_id)
        if not worker.busy:
            pool._refill(worker, self)

    # -- the streaming consumer -------------------------------------------

    def outstanding(self) -> int:
        """Tasks submitted whose results have not been yielded yet."""
        return len(self._payloads) - len(self._done) - len(self._inline)

    def results(self) -> Iterator[Tuple[object, bytes]]:
        """Yield ``(key, frame)`` as tasks complete, until drained.

        ``frame`` is the task's binary :mod:`~repro.core.wire` frame;
        rebuild the result with :func:`~repro.core.wire.decode_result`.
        Completion order follows execution, not submission; callers that
        need submission order reassemble by key.  Worker crashes are
        absorbed here (requeue, retry, inline fallback); a task that
        *raised* inside a worker re-raises as :class:`PoolTaskError`,
        and one that raised inline re-raises unchanged.  The pool is
        given back when the drain ends, however it ends.
        """
        pool = self._pool
        try:
            while self._inline or self.outstanding():
                if self._inline:
                    task_id = self._inline.popleft()
                    if task_id in self._done:
                        continue  # completed by a worker retry meanwhile
                    frame = _execute(self._payloads[task_id])
                    self.stats.inline_tasks += 1
                    yield self._finish(task_id, -1, frame)
                    continue
                message = self._next_message()
                if message is None:
                    continue  # crash recovery queued inline work
                if message[0] == "boot":
                    pool._mark_booted(message[1], message[2])
                    continue
                _, worker_id, epoch, entries = message
                chunk_ids = [task_id for task_id, _ in entries]
                worker = pool._workers.get(worker_id)
                if worker is not None and worker.current == chunk_ids and \
                        worker.epoch == epoch:
                    worker.busy = False
                    worker.current = None
                    pool._observe_cost(
                        (time.monotonic()  # simlint: disable=SIM101
                         - worker.dispatched_at) / max(1, len(chunk_ids)))
                    pool._refill(worker, self)
                if epoch != self._epoch:
                    continue  # stale epoch: an abandoned run's leftovers
                pool.obs.emit(POOL_RESULT_BATCH, pool._now(), worker_id,
                              len(entries))
                for task_id, payload in entries:
                    if task_id in self._done:
                        continue  # a crash-retry duplicate
                    if isinstance(payload, tuple):
                        raise PoolTaskError(
                            f"task {self._keys[task_id]!r} failed in pool "
                            f"worker {worker_id}: {payload[1]}\n{payload[2]}")
                    yield self._finish(task_id, worker_id, payload)
            pool.obs.emit(POOL_DRAIN, pool._now(), self.stats.tasks,
                          self.stats.stolen_tasks, self.stats.crashed_workers)
        finally:
            self.close()

    def _finish(self, task_id: int, worker_id: int,
                frame: bytes) -> Tuple[object, bytes]:
        self._done.add(task_id)
        self.stats.tasks += 1
        self.stats.worker_tasks[worker_id] = \
            self.stats.worker_tasks.get(worker_id, 0) + 1
        if worker_id in self._warm_ids:
            self.stats.warm_tasks += 1
        pool = self._pool
        pool.obs.emit(POOL_RESULT, pool._now(), worker_id, task_id)
        return self._keys[task_id], frame

    def _next_message(self):
        pool = self._pool
        while True:
            try:
                return pool._results.get(timeout=_POLL_SECONDS)
            except Empty:
                self._reap_crashes()
                if self._inline:
                    # Crash recovery just queued inline work; with no
                    # surviving workers there may never be another
                    # message, so hand control back to the drain loop.
                    return None
            except (OSError, ValueError):
                # The pool was shut down under this run (the result
                # queue is closed).  shutdown() already joined the
                # workers, cleared the registry, and drained any
                # results they had shipped, so crash reaping cannot see
                # them: fold every not-yet-done task into the inline
                # queue ourselves and let the drain loop complete the
                # sweep in the manager — the caller still gets every
                # result, and cache claims are released by the normal
                # put path.
                queued = set(self._inline)
                for task_id in self._payloads:
                    if task_id not in self._done and \
                            task_id not in queued:
                        self._inline.append(task_id)
                return None

    # -- crash recovery ----------------------------------------------------

    def _reap_crashes(self) -> None:
        pool = self._pool
        dead = [w for w in pool._workers.values()
                if not w.process.is_alive()]
        for worker in dead:
            # A chunk from an abandoned earlier run is not ours to retry.
            current = (worker.current or ()) \
                if worker.epoch == self._epoch else ()
            in_flight = [t for t in current if t not in self._done]
            pool.obs.emit(POOL_WORKER_CRASH, pool._now(), worker.id,
                          in_flight[0] if in_flight else -1)
            self.stats.crashed_workers += 1
            orphans = list(worker.queue)
            del pool._workers[worker.id]
            retry: List[int] = []
            for crashed_task in in_flight:
                self._crashes[crashed_task] = \
                    self._crashes.get(crashed_task, 0) + 1
                if self._crashes[crashed_task] >= _MAX_TASK_CRASHES:
                    self._inline.append(crashed_task)
                else:
                    retry.append(crashed_task)
            self._requeue(retry + orphans)

    def _requeue(self, task_ids: List[int]) -> None:
        """Hand a dead worker's backlog to survivors (or run it inline)."""
        pool = self._pool
        for task_id in task_ids:
            if task_id in self._done:
                continue
            worker = pool._place(self)
            if worker is None:
                self._inline.append(task_id)
                continue
            worker.queue.append(task_id)
            if not worker.busy:
                pool._refill(worker, self)


class WorkerPool:
    """A long-lived pool of warm worker processes for sweep cells.

    ``workers`` is the *ceiling*: processes are spawned lazily, one per
    concurrently outstanding task, so a 64-worker pool asked to run a
    4-cell grid starts exactly 4 processes.  The pool survives across
    runs — that is the point: the second sweep on the same pool pays
    zero spawn or import cost (its cells count as ``warm_tasks``).

    Use :meth:`run` for a plain "one result per config" mapping or
    :meth:`session` for streaming/dynamic workloads (one session at a
    time owns the pool), and
    :meth:`shutdown` (or process exit — workers are daemons) to stop it.
    Results are bit-identical to inline execution by construction; see
    the module docstring.
    """

    def __init__(self, workers: int, max_chunk: int = 32) -> None:
        if workers < 1:
            raise ConfigurationError(f"pool workers must be >= 1: {workers}")
        if max_chunk < 1:
            raise ConfigurationError(
                f"pool max_chunk must be >= 1: {max_chunk}")
        self.max_workers = workers
        #: Ceiling on how many tasks ride one queue message.  ``1``
        #: restores strict per-task dispatch (the pre-batching wire
        #: behaviour, kept for comparison benchmarks).
        self.max_chunk = max_chunk
        #: Manager-side lifecycle events (``pool.*`` kinds) are emitted
        #: here; attach sinks to observe boots, steals, and drains.
        self.obs = EventBus()
        #: Lifetime totals across every run of this pool.
        self.stats = PoolRunStats()
        self._ctx = multiprocessing.get_context(_START_METHOD)
        #: The shared result queue, created with the first worker: a
        #: pool that never spawns holds no queue and no pipe.
        self._results = None
        self._workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._epoch = 0
        #: Held by the session that owns the pool (first submit to drain).
        self._lock = threading.Lock()
        #: EMA of observed seconds per task; None until the first chunk
        #: completes (cold dispatches stay per-task, so a skewed grid's
        #: expensive head never drags cheap cells into its chunk).
        self._task_cost: Optional[float] = None
        self._t0 = time.monotonic()  # simlint: disable=SIM101
        self._closed = False

    # -- introspection -----------------------------------------------------

    def _now(self) -> float:
        return time.monotonic() - self._t0  # simlint: disable=SIM101

    @property
    def started_workers(self) -> int:
        """Worker processes currently live (spawned and not crashed)."""
        return len(self._workers)

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self, session: _PoolSession) -> Optional[_Worker]:
        if len(self._workers) >= self.max_workers or self._closed:
            return None
        if self._results is None:
            self._results = self._ctx.Queue()
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        tasks = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_worker_main, args=(worker_id, tasks, self._results),
            name=f"repro-pool-w{worker_id}", daemon=True)
        worker = _Worker(worker_id, process, tasks)
        process.start()
        self._workers[worker_id] = worker
        session.stats.booted_workers += 1
        return worker

    def _mark_booted(self, worker_id: int, pid: int) -> None:
        worker = self._workers.get(worker_id)
        if worker is None or worker.booted:
            return
        worker.booted = True
        self.obs.emit(POOL_WORKER_BOOT, self._now(), worker_id, pid,
                      time.monotonic()  # simlint: disable=SIM101
                      - worker.spawned_at)

    def _place(self, session: _PoolSession) -> Optional[_Worker]:
        """The worker a fresh task should land on (spawning if useful)."""
        idle = [w for w in self._workers.values() if not w.busy
                and not w.queue]
        if idle:
            return min(idle, key=lambda w: w.id)
        spawned = self._spawn(session)
        if spawned is not None:
            return spawned
        if not self._workers:
            return None
        return min(self._workers.values(), key=lambda w: (w.load, w.id))

    # -- dispatch, chunking, and stealing ---------------------------------

    def _chunk_size(self) -> int:
        """How many tasks the next dispatch should carry.

        Adaptive: grow the chunk until it costs ~``_CHUNK_TARGET_SECONDS``
        of worker time at the observed per-task cost, clamped to
        ``max_chunk``.  With no cost observation yet (cold pool, or a
        per-task ``max_chunk=1`` pool) dispatch stays one task at a time.
        """
        cost = self._task_cost
        if self.max_chunk <= 1 or cost is None:
            return 1
        if cost <= 0:
            return self.max_chunk
        return max(1, min(self.max_chunk,
                          int(_CHUNK_TARGET_SECONDS / cost)))

    def _observe_cost(self, seconds_per_task: float) -> None:
        """Feed one completed chunk's per-task cost into the sizing EMA."""
        if self._task_cost is None:
            self._task_cost = seconds_per_task
        else:
            self._task_cost += _COST_EMA_ALPHA * (
                seconds_per_task - self._task_cost)

    def _dispatch(self, worker: _Worker, task_ids: List[int],
                  session: _PoolSession, stolen_from: int = -1) -> None:
        worker.busy = True
        worker.current = list(task_ids)
        worker.epoch = session._epoch
        worker.dispatched_at = time.monotonic()  # simlint: disable=SIM101
        worker.tasks.put((session._epoch,
                          [(t, session._payloads[t]) for t in task_ids]))
        now = self._now()
        if stolen_from >= 0:
            session.stats.stolen_tasks += len(task_ids)
            for task_id in task_ids:
                self.obs.emit(POOL_STEAL, now, worker.id, stolen_from,
                              task_id)
        for task_id in task_ids:
            self.obs.emit(POOL_DISPATCH, now, worker.id, task_id)
        self.obs.emit(POOL_DISPATCH_BATCH, now, worker.id, len(task_ids))

    def _refill(self, worker: _Worker, session: _PoolSession) -> None:
        """Give a now-free worker its next chunk: own queue, else steal."""
        size = self._chunk_size()
        if worker.queue:
            chunk = [worker.queue.popleft()
                     for _ in range(min(size, len(worker.queue)))]
            self._dispatch(worker, chunk, session)
            return
        victims = [w for w in self._workers.values() if w.queue]
        if not victims:
            return
        victim = max(victims, key=lambda w: (len(w.queue), -w.id))
        # Take at most half the victim's backlog: the victim refills
        # from its own queue next, so stealing must not starve it.
        take = max(1, min(size, (len(victim.queue) + 1) // 2))
        chunk = [victim.queue.popleft() for _ in range(take)]
        self._dispatch(worker, chunk, session, stolen_from=victim.id)

    # -- public execution API ----------------------------------------------

    def session(self) -> _PoolSession:
        """Start a streaming run (submit tasks, then consume results).

        The session takes the pool at its first submit and holds it
        until its results drain or it is closed; a second session's
        first submit waits until then, so concurrent sweeps on one pool
        (the service's dispatchers, threads sharing :func:`shared_pool`)
        run one after another.  Taking the pool advances its epoch: any
        result still in flight from an abandoned earlier run is
        recognized as stale and dropped rather than misdelivered.
        """
        if self._closed:
            raise ConfigurationError("worker pool is shut down")
        return _PoolSession(self)

    def run(self, configs: Iterable[PtpBenchmarkConfig],
            keys: Optional[Iterable[object]] = None,
            ) -> Iterator[Tuple[object, bytes]]:
        """Stream ``(key, frame)`` for each config as it finishes.

        ``frame`` is the shipped wire frame; rebuild with
        :func:`~repro.core.wire.decode_result`.  ``keys`` defaults to
        the configs' positions.  The pool-lifetime :attr:`stats` absorb
        the run's counters when the session closes.
        """
        session = self.session()
        configs = list(configs)
        key_list = list(keys) if keys is not None else list(
            range(len(configs)))
        if len(key_list) != len(configs):
            raise ConfigurationError(
                f"run() got {len(configs)} configs but {len(key_list)} keys")
        try:
            for key, config in zip(key_list, configs):
                session.submit(key, config)
            yield from session.results()
        finally:
            session.close()

    # -- shutdown ----------------------------------------------------------

    def shutdown(self, join_seconds: float = 2.0) -> int:
        """Stop every worker (idempotent): sentinel, join, then terminate.

        Beyond stopping the processes, shutdown *drains and closes* the
        queue plumbing: every worker's task queue (both pipe ends held
        by the manager) and the shared result queue, whose stale
        messages are consumed before ``close()``/``join_thread()``.
        Without this, each pool left a pair of pipe fds per worker plus
        the result queue's buffer thread behind — a real leak
        (``ResourceWarning`` under ``-X dev``) once a long-running
        service starts and stops pools repeatedly.  Returns the number
        of stale result messages drained (0 on a clean pool, and on
        repeated calls).
        """
        if self._closed:
            return 0
        self._closed = True
        workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.tasks.put(None)
            except (OSError, ValueError):  # queue already broken/closed
                pass
        for worker in workers:
            worker.process.join(timeout=join_seconds)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=join_seconds)
        self._workers.clear()
        for worker in workers:
            try:
                worker.tasks.close()  # both manager-held pipe ends
            except (OSError, ValueError):
                pass
        if self._results is None:
            return 0  # never spawned: no queue to wind down
        # Workers are gone; anything still buffered in the result queue
        # is an abandoned run's leftovers.  Consume it so the queue's
        # feeder machinery can wind down cleanly via join_thread()
        # instead of being cancelled with live buffers.
        drained = 0
        while True:
            try:
                self._results.get_nowait()
                drained += 1
            except (Empty, OSError, ValueError):
                break
        self._results.close()
        try:
            self._results.join_thread()
        except (OSError, ValueError, AssertionError):
            pass
        return drained


def _inline_pool() -> WorkerPool:
    """A pool that never spawns a worker: the ``jobs=1`` engine.

    Every task runs in the draining thread, through the same session
    drain and wire frame as a pooled run; no process, queue, or pipe is
    ever created.  Each ``jobs=1`` sweep gets its own, so concurrent
    ones (the service's ``--jobs 1`` dispatchers) never wait on a lock.
    """
    pool = WorkerPool(1)
    pool.max_workers = 0
    return pool


# ---------------------------------------------------------------------------
# The process-wide shared pool (every jobs > 1 sweep without a pool)
# ---------------------------------------------------------------------------

_SHARED: Optional[WorkerPool] = None


def shared_pool(workers: int) -> WorkerPool:
    """The process-wide warm pool, created (or grown) on first use.

    Repeated calls return the same pool so consecutive sweeps reuse warm
    workers; asking for more ``workers`` raises the ceiling (processes
    still spawn lazily).  The pool is shut down automatically at
    interpreter exit; call :func:`shutdown_shared_pool` to do it sooner.
    """
    global _SHARED
    if workers < 1:
        raise ConfigurationError(f"pool workers must be >= 1: {workers}")
    if _SHARED is None or _SHARED._closed:
        _SHARED = WorkerPool(workers)
    elif workers > _SHARED.max_workers:
        _SHARED.max_workers = workers
    return _SHARED


def shutdown_shared_pool() -> None:
    """Stop the shared pool's workers (no-op when none exists)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.shutdown()
        _SHARED = None


atexit.register(shutdown_shared_pool)
