"""The persistent worker pool: one kept-warm process executor.

Every figure of the paper is a grid of independent, self-seeded cells.
Building a process pool per sweep made every ``--jobs N`` run pay a
spawn plus a full interpreter boot — imports, interned event-kind
tables, machine/topology model construction.  Hunold & Carpen-Amarie
("MPI Benchmarking Revisited") catalogue exactly this failure mode in
MPI micro-benchmarks: fixed per-experiment overhead that swamps the
quantity under study.

:class:`WorkerPool` keeps one :class:`~concurrent.futures.ProcessPoolExecutor`
alive from sweep to sweep — the manager/worker shape of nengo-mpi's
``mpi_wake_workers``/``mpi_worker_start`` loop, which the stock executor
already provides.  Its workers boot **once** and stay warm: module
imports, the process-wide interned :data:`repro.obs.SCHEMA`, and every
memoized machine/network model survive across sweeps.  Workers start by
fork where the platform has it and the manager runs one thread (they
inherit its imports), from a fork server when it runs more, and by
spawn on platforms without fork.  Each task — a whole cell, or one
adaptive-planner trial — is one future whose result is the cell's
binary :mod:`~repro.core.wire` frame.  A :class:`PoolRun` streams one
sweep's frames back as they complete; runs sharing a pool (the
service's dispatchers, a figure sweep) each see only their own futures.

Determinism is untouched: a task is a fully resolved, self-seeded
:class:`~repro.core.config.PtpBenchmarkConfig`, so *which* worker runs
it, and in *what* order, cannot change a bit of its result.  The
golden-digest and parallel-equivalence suites enforce serial ==
``--jobs N`` == reused-warm-pool, digest for digest.

Crashes degrade instead of hanging: a dead worker breaks the executor,
the pool builds a fresh one, and each run resubmits the tasks it lost,
once.  If that executor breaks too, the run executes what is left
inline, where an error is an ordinary exception.  A task that *raised*
in a worker surfaces as :class:`PoolTaskError` with the worker's
traceback text.  :mod:`concurrent.futures` and :mod:`multiprocessing`
are imported when the first executor is built, so ``import repro`` and
inline ``jobs=1`` runs never pay for them.
"""

from __future__ import annotations

import atexit
import threading
import time
from collections import deque
from dataclasses import dataclass, fields
from queue import SimpleQueue
from typing import Iterable, Iterator, Optional, Tuple

from ..errors import ConfigurationError, ReproError
from ..obs import EventBus
from ..obs.kinds import POOL_DISPATCH_BATCH
from .config import PtpBenchmarkConfig
from .runner import run_ptp_benchmark
from .wire import encode_result

__all__ = ["PoolRun", "PoolRunStats", "PoolTaskError", "WorkerPool",
           "shared_pool", "shutdown_shared_pool"]


class PoolTaskError(ReproError):
    """A task raised inside a worker process.

    Carries the worker-side traceback text; the original exception
    object does not cross the process boundary.
    """


def _execute(config: PtpBenchmarkConfig) -> bytes:
    """Run one config (in whichever process) as a :mod:`~repro.core.wire`
    frame: one bytes object the executor pickles in a single opcode."""
    return encode_result(run_ptp_benchmark(config))


def _new_executor(workers: int):
    """A process executor of ``workers`` workers.

    A process running one thread forks them, so they inherit its
    imports.  One running more — a rebuild after a crash, while the
    broken executor's threads still live, or a server — must not fork:
    the child would copy locks other threads hold.  It starts them from
    a fork server instead, which imports this package once so that the
    workers it forks start with it imported too.  Platforms without fork
    spawn.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        method = "fork"
    elif "forkserver" in methods:
        method = "forkserver"
    else:
        method = "spawn"
    context = multiprocessing.get_context(method)
    if method == "forkserver":
        context.set_forkserver_preload([__name__])
    return ProcessPoolExecutor(workers, mp_context=context)


@dataclass
class PoolRunStats:
    """How one run (or a pool's lifetime) executed its tasks."""

    #: Tasks completed (including inline ones).
    tasks: int = 0
    #: Tasks run on an executor that was already up when the run began —
    #: the warm-pool payoff a cold spawn never sees.
    warm_tasks: int = 0
    #: Workers of the executors the run built.
    booted_workers: int = 0
    #: Tasks run in the draining thread: every task of a poolless run,
    #: and on a pool what was left after its executor broke twice or
    #: the pool was shut down under the run.
    inline_tasks: int = 0

    #: The pool no longer steals work.  The end-to-end benchmark's trace
    #: (``e2ebench/figures.py``) still reads this counter, so it stays,
    #: always 0, until that benchmark is next revised (ROADMAP item 1).
    stolen_tasks = 0

    def absorb(self, other: "PoolRunStats") -> None:
        """Accumulate another run's counters (pool-lifetime totals)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) +
                    getattr(other, f.name))


class PoolRun:
    """One streaming run: :meth:`submit` tasks, iterate :meth:`results`.

    ``submit()`` may be called while ``results()`` is being consumed —
    that is how the adaptive planner schedules follow-up trials as
    earlier ones stream in.  With ``pool=None`` every task runs inline in
    the draining thread: the ``jobs=1`` engine, with no process, queue
    or pipe.  ``expected`` is how many tasks the run will have in flight
    at once; it sizes the pool's executor when this run builds it.
    """

    def __init__(self, pool: Optional["WorkerPool"], expected: int = 1):
        if pool is not None and pool._closed:
            raise ConfigurationError("worker pool is shut down")
        self._pool = pool
        self._expected = expected
        self.stats = PoolRunStats()
        #: Tasks that land on this executor count as warm.
        self._warm = pool._live if pool is not None else None
        #: future -> (key, config, the executor it was submitted to)
        self._futures: dict = {}
        #: Futures in completion order, fed by their done-callbacks.
        self._completed: SimpleQueue = SimpleQueue()
        self._inline: deque = deque()
        #: Executors this run saw break (or cancel its tasks).
        self._broken: list = []

    def submit(self, key, config: PtpBenchmarkConfig) -> None:
        """Queue one task; its frame streams back under ``key``.

        Inline tasks are only queued here and run when :meth:`results`
        reaches them, so ``submit`` never simulates.
        """
        placed = None
        if self._pool is not None and len(self._broken) < 2:
            placed = self._pool._submit(config, self._expected, self.stats)
        if placed is None:
            self._inline.append((key, config))
            return
        future, executor = placed
        self._futures[future] = (key, config, executor)
        future.add_done_callback(self._completed.put)

    def results(self) -> Iterator[Tuple[object, bytes]]:
        """Yield ``(key, frame)`` as tasks complete, until drained.

        ``frame`` is the task's :mod:`~repro.core.wire` frame; rebuild
        the result with :func:`~repro.core.wire.decode_result`.
        Completion order follows execution, not submission; callers that
        need submission order reassemble by key.  A task that raised in
        a worker re-raises as :class:`PoolTaskError`, one that raised
        inline re-raises unchanged.  However the drain ends, the run's
        unstarted tasks are cancelled and its counters are added to the
        pool's lifetime ``stats`` once.
        """
        try:
            while self._futures or self._inline:
                if self._inline:
                    key, config = self._inline.popleft()
                    frame = _execute(config)
                    self.stats.tasks += 1
                    self.stats.inline_tasks += 1
                    yield key, frame
                    continue
                future = self._completed.get()
                key, config, executor = self._futures.pop(future)
                yielded = self._settle(future, key, config, executor)
                if yielded is not None:
                    yield yielded
        finally:
            for future in self._futures:
                future.cancel()
            if self._pool is not None:
                self._pool._absorb(self.stats)

    def _settle(self, future, key, config, executor):
        """The finished future's ``(key, frame)``, or None when its task
        was lost to a broken or shut-down executor and resubmitted."""
        from concurrent.futures import BrokenExecutor
        if not future.cancelled():
            error = future.exception()
            if error is None:
                self.stats.tasks += 1
                if executor is self._warm:
                    self.stats.warm_tasks += 1
                return key, future.result()
            if not isinstance(error, BrokenExecutor):
                remote = getattr(error.__cause__, "tb", "")
                raise PoolTaskError(
                    f"task {key!r} failed in a pool worker: "
                    f"{type(error).__name__}: {error}\n{remote}") from error
        if executor not in self._broken:
            self._broken.append(executor)
            self._pool._retire(executor)
        self.submit(key, config)
        return None


class WorkerPool:
    """A long-lived process executor for sweep cells.

    ``workers`` is the *ceiling*.  The executor is built by the first
    run with as many workers as that run has tasks, up to the ceiling,
    and rebuilt larger only for a later run with more; so a 64-worker
    pool asked to run a 4-cell grid starts 4 processes.  The executor
    survives across runs — that is the point: the second sweep on the
    same pool pays no spawn or import cost (its tasks count as
    ``warm_tasks``).

    Use :meth:`run` for a plain "one frame per config" mapping or a
    :class:`PoolRun` for a streaming workload, and :meth:`shutdown` (or
    interpreter exit) to stop the workers.  ``run``, ``shutdown``, the
    ``stats`` counters and ``obs`` (one ``pool.dispatch_batch`` event
    per submitted task) are also what the end-to-end benchmark's trace
    reads; they stay until that benchmark is next revised (ROADMAP
    item 1).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"pool workers must be >= 1: {workers}")
        self.max_workers = workers
        #: ``pool.dispatch_batch`` events, one per submitted task, stamped
        #: with host-monotonic seconds since the pool was created.
        self.obs = EventBus()
        #: Lifetime totals across every run of this pool.
        self.stats = PoolRunStats()
        self._lock = threading.Lock()
        self._live = None
        self._size = 0
        self._closed = False
        self._t0 = time.monotonic()  # simlint: disable=SIM101

    @property
    def started_workers(self) -> int:
        """Workers of the live executor (0 before the first run)."""
        return self._size if self._live is not None else 0

    def _submit(self, config: PtpBenchmarkConfig, expected: int,
                stats: PoolRunStats):
        """Submit one task to the live executor, building it (or a larger
        one) first if needed; ``(future, executor)``, or None once the
        pool is shut down.  A broken executor yields a failed future."""
        from concurrent.futures import BrokenExecutor, Future
        with self._lock:
            if self._closed:
                return None
            self._grow(min(expected, self.max_workers), stats)
            executor = self._live
            try:
                future = executor.submit(_execute, config)
            except BrokenExecutor as exc:
                future = Future()
                future.set_exception(exc)
        self.obs.emit(POOL_DISPATCH_BATCH,
                      time.monotonic() - self._t0,  # simlint: disable=SIM101
                      1)
        return future, executor

    def _grow(self, size: int, stats: PoolRunStats) -> None:
        """Make the live executor at least ``size`` workers, and no
        smaller than the one it replaces (under ``_lock``)."""
        if self._live is None or self._size < size:
            if self._live is not None:
                self._live.shutdown(wait=False)  # its tasks finish
            size = max(size, self._size)
            self._live, self._size = _new_executor(size), size
            stats.booted_workers += size

    def start(self) -> None:
        """Start all ``max_workers`` workers now.

        An executor forks its workers when its first task is submitted,
        which may be on any thread.  A process about to start threads
        (``repro serve``) calls this first, so it forks while it still
        has one thread.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError("worker pool is shut down")
            self._grow(self.max_workers, self.stats)
            ready = self._live.submit(int)
        ready.result()

    def _retire(self, executor) -> None:
        """Drop a broken executor; the next submit builds a fresh one of
        at least its size."""
        with self._lock:
            if self._live is executor:
                self._live = None
        executor.shutdown(wait=False)

    def _absorb(self, stats: PoolRunStats) -> None:
        with self._lock:
            self.stats.absorb(stats)

    def run(self, configs: Iterable[PtpBenchmarkConfig],
            keys: Optional[Iterable[object]] = None,
            ) -> Iterator[Tuple[object, bytes]]:
        """Stream ``(key, frame)`` for each config as it finishes.

        ``frame`` is the shipped wire frame; rebuild with
        :func:`~repro.core.wire.decode_result`.  ``keys`` defaults to
        the configs' positions.
        """
        configs = list(configs)
        key_list = list(keys) if keys is not None else list(
            range(len(configs)))
        if len(key_list) != len(configs):
            raise ConfigurationError(
                f"run() got {len(configs)} configs but {len(key_list)} keys")
        run = PoolRun(self, len(configs))
        for key, config in zip(key_list, configs):
            run.submit(key, config)
        yield from run.results()

    def shutdown(self) -> None:
        """Stop the workers (idempotent).

        Running tasks finish; queued ones are cancelled, and the runs
        that submitted them execute them inline.
        """
        with self._lock:
            self._closed = True
            live, self._live = self._live, None
        if live is not None:
            live.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# The process-wide shared pool (every jobs > 1 sweep without a pool)
# ---------------------------------------------------------------------------

_SHARED: Optional[WorkerPool] = None


def shared_pool(workers: int) -> WorkerPool:
    """The process-wide warm pool, created (or grown) on first use.

    Repeated calls return the same pool so consecutive sweeps reuse warm
    workers; asking for more ``workers`` raises the ceiling (the next
    run with more tasks builds the larger executor).  The pool is shut
    down automatically at interpreter exit; call
    :func:`shutdown_shared_pool` to do it sooner.
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
