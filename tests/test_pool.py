"""The persistent worker pool: warm reuse, crash recovery, shutdown."""

import concurrent.futures.process as cf_process
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro.core.pool as pool_module
from repro.core import (METRIC_NAMES, PtpBenchmarkConfig, SweepStats,
                        WorkerPool, plan_cells, run_cells, run_ptp_benchmark,
                        sweep_ptp)
from repro.core.pool import (PoolRun, PoolRunStats, PoolTaskError,
                             shared_pool, shutdown_shared_pool)
from repro.core.wire import decode_result, encode_result
from repro.errors import ConfigurationError
from repro.metrics import AdaptiveTrialPlanner
from repro.noise import UniformNoise

SIZES = [1024, 65536]
COUNTS = [1, 4]


def _base(**overrides):
    defaults = dict(message_bytes=64, partitions=1,
                    compute_seconds=1e-4, iterations=2)
    defaults.update(overrides)
    return PtpBenchmarkConfig(**defaults)


def _digests(results):
    return [r.event_digest for r in results]


@pytest.fixture
def pool():
    p = WorkerPool(2)
    yield p
    p.shutdown()


@pytest.fixture(autouse=True)
def no_fork_under_threads(monkeypatch):
    """Fail a test in which this process forks while it runs other
    threads: the child could inherit a lock one of them holds.  (Python
    3.12 warns about such a fork, but its ``os.fork`` drops the warning
    even when warnings are errors, so the suite checks for itself.)"""
    real_fork = os.fork
    crowded = []

    def fork():
        threads = threading.active_count()
        pid = real_fork()
        if pid and threads > 1:
            crowded.append(threads)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield
    assert not crowded, f"forked while {crowded} threads ran"


FORK_ONLY = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers are killed with POSIX signals")

_REAL_EXECUTE = pool_module._execute
_REAL_PROCESS_WORKER = cf_process._process_worker


def _claim(marker):
    """True for the one caller that creates ``marker``."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


class _CrashWorker:
    """A pool task body that SIGKILLs the worker running it: once per
    test when ``marker`` names a file whose creation claims the crash,
    else every time.  It never fires in the test process, so the inline
    fallback (which runs the same body) computes normally.  An instance
    pickles by value, so it reaches workers however they start: forked,
    or (after a crash, under threads) from a fork server."""

    def __init__(self, marker=None):
        self.marker = marker
        self.manager = os.getpid()

    def __call__(self, config):
        if os.getpid() != self.manager and (
                self.marker is None or _claim(self.marker)):
            os.kill(os.getpid(), signal.SIGKILL)
        return _REAL_EXECUTE(config)


class _HoldResultLockOnce:
    """A worker main that, in the first worker to start, takes the
    shared result queue's write lock and exits, as if killed mid-send;
    later workers run normally."""

    def __init__(self, marker):
        self.marker = marker

    def __call__(self, call_queue, result_queue, *args):
        if not _claim(self.marker):
            return _REAL_PROCESS_WORKER(call_queue, result_queue, *args)
        result_queue._wlock.acquire()
        os._exit(1)


# ---------------------------------------------------------------------------
# Validation and worker clamping
# ---------------------------------------------------------------------------

class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)
        with pytest.raises(ConfigurationError):
            shared_pool(-1)

    def test_lazy_spawn_clamps_to_work(self):
        # A 64-worker pool asked to run 4 cells must start 4 processes,
        # not 64.
        big = WorkerPool(64)
        try:
            cells = plan_cells(_base(seed=2), SIZES, COUNTS)
            results, _ = run_cells(cells, jobs=64, pool=big)
            assert len(results) == 4
            assert big.started_workers <= 4
        finally:
            big.shutdown()

    def test_transient_pool_clamped_too(self):
        # Without a pool, jobs > 1 runs on the shared pool, which spawns
        # lazily too.
        shutdown_shared_pool()
        try:
            cells = plan_cells(_base(seed=2), SIZES, COUNTS)
            _, stats = run_cells(cells, jobs=64)
            assert stats.pool.booted_workers <= len(cells)
            assert shared_pool(64).started_workers <= len(cells)
        finally:
            shutdown_shared_pool()

    def test_closed_pool_rejects_sessions(self, pool):
        pool.shutdown()
        with pytest.raises(ConfigurationError):
            list(pool.run([_base()]))
        with pytest.raises(ConfigurationError):
            run_cells(plan_cells(_base(), [1024], [1]), jobs=2, pool=pool)

    def test_run_key_length_mismatch_rejected(self, pool):
        with pytest.raises(ConfigurationError):
            list(pool.run([_base()], keys=["a", "b"]))


# ---------------------------------------------------------------------------
# Warm reuse: the tentpole invariant
# ---------------------------------------------------------------------------

class TestWarmReuse:
    def test_two_warm_sweeps_byte_identical_to_two_cold_serial_runs(
            self, pool):
        base = _base(noise=UniformNoise(4.0), seed=11)
        cold1 = sweep_ptp(base, SIZES, COUNTS, jobs=1)
        cold2 = sweep_ptp(base, SIZES, COUNTS, jobs=1)
        warm1 = sweep_ptp(base, SIZES, COUNTS, jobs=2, pool=pool)
        warm2 = sweep_ptp(base, SIZES, COUNTS, jobs=2, pool=pool)
        for cold, warm in ((cold1, warm1), (cold2, warm2)):
            for metric in METRIC_NAMES:
                assert cold.series(metric) == warm.series(metric)
            for m in SIZES:
                for n in COUNTS:
                    c = cold.point(m, n).result
                    w = warm.point(m, n).result
                    assert c.event_digest is not None
                    assert c.event_digest == w.event_digest
                    assert [s.timeline for s in c.samples] == \
                        [s.timeline for s in w.samples]
                    assert [s.metrics for s in c.samples] == \
                        [s.metrics for s in w.samples]

    def test_second_sweep_reuses_warm_workers(self, pool):
        cells = plan_cells(_base(seed=4), SIZES, COUNTS)
        _, first = run_cells(cells, jobs=2, pool=pool)
        _, second = run_cells(cells, jobs=2, pool=pool)
        assert first.pool.warm_tasks == 0      # cold pool: every worker booted
        assert second.pool.warm_tasks == len(cells)
        assert pool.stats.tasks == 2 * len(cells)

    def test_planner_trials_on_pool_match_serial(self, pool):
        base = _base(noise=UniformNoise(4.0), seed=11)
        planner = AdaptiveTrialPlanner(ci_target=1e-12, min_trials=2,
                                       max_trials=3, batch=1)
        cells = plan_cells(base, SIZES, COUNTS)
        serial, s_stats = run_cells(cells, jobs=1, planner=planner)
        pooled, p_stats = run_cells(cells, jobs=2, planner=planner,
                                    pool=pool)
        assert _digests(serial) == _digests(pooled)
        assert [r.trials for r in serial] == [r.trials for r in pooled]
        assert p_stats.trials == s_stats.trials
        # Trial decomposition: the pool saw one task per trial, not one
        # per cell.
        assert p_stats.pool.tasks == s_stats.trials

    def test_shared_pool_is_process_wide_and_grows(self):
        shutdown_shared_pool()
        try:
            a = shared_pool(2)
            assert shared_pool(2) is a
            assert shared_pool(4) is a       # ceiling raised in place
            assert a.max_workers == 4
        finally:
            shutdown_shared_pool()
        b = shared_pool(2)
        try:
            assert b is not a                # fresh pool after shutdown
        finally:
            shutdown_shared_pool()


# ---------------------------------------------------------------------------
# The pool's counters in the sweep report
# ---------------------------------------------------------------------------

class TestWorkStealing:
    """The pool steals no work: the executor hands each task to whichever
    worker is idle.  What the report shows in place of steal counts."""

    def test_describe_surfaces_pool_counters(self, pool):
        cells = plan_cells(_base(seed=6), SIZES, COUNTS)
        _, stats = run_cells(cells, jobs=2, pool=pool)
        line = stats.describe()
        assert f", {stats.pool.warm_tasks} warm (jobs=2)" in line
        assert "stolen" not in line and stats.pool.stolen_tasks == 0
        # Serial runs keep the pre-pool provenance line.
        _, serial_stats = run_cells(cells, jobs=1)
        assert "warm" not in serial_stats.describe()


# ---------------------------------------------------------------------------
# Crash recovery: degrade, never hang
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    def test_dead_worker_is_detected_and_work_rescued(self, pool):
        cells = plan_cells(_base(seed=8), SIZES, COUNTS)
        before = {p.pid for p in multiprocessing.active_children()}
        run_cells(cells, jobs=2, pool=pool)           # boot both workers
        victim = next(p for p in multiprocessing.active_children()
                      if p.pid not in before)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        serial, _ = run_cells(cells, jobs=1)
        rescued, stats = run_cells(cells, jobs=2, pool=pool)
        assert _digests(rescued) == _digests(serial)
        # The broken executor was replaced by a freshly booted one.
        assert stats.pool.booted_workers == 2
        assert victim.pid not in {
            p.pid for p in multiprocessing.active_children()}

    def test_rebuilt_executor_keeps_the_pool_size(self, pool):
        before = {p.pid for p in multiprocessing.active_children()}
        pool.start()
        executor = pool._live
        victim = next(p for p in multiprocessing.active_children()
                      if p.pid not in before)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        deadline = time.monotonic() + 30
        while not executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert executor._broken
        config = plan_cells(_base(seed=8), [1024], [1])[0]
        (_, frame), = pool.run([config])
        assert decode_result(config, frame).event_digest == \
            run_ptp_benchmark(config).event_digest
        # A one-task run rebuilds at the retired executor's size, so the
        # next larger run does not fork again.
        assert pool.started_workers == 2

    @FORK_ONLY
    def test_rebuild_while_another_thread_runs_does_not_fork(self, pool):
        before = {p.pid for p in multiprocessing.active_children()}
        pool.start()
        executor = pool._live
        victim = next(p for p in multiprocessing.active_children()
                      if p.pid not in before)
        release = threading.Event()
        bystander = threading.Thread(target=release.wait, daemon=True)
        bystander.start()
        try:
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            deadline = time.monotonic() + 30
            while not executor._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert executor._broken
            cells = plan_cells(_base(seed=12), SIZES, COUNTS)
            serial, _ = run_cells(cells, jobs=1)
            rescued, _ = run_cells(cells, jobs=2, pool=pool)
            rebuilt = pool._live
            assert rebuilt is not None and rebuilt is not executor
            # A fork now would copy the bystander's state mid-flight.
            assert rebuilt._mp_context.get_start_method() != "fork"
            assert _digests(rescued) == _digests(serial)
        finally:
            release.set()
            bystander.join()

    @FORK_ONLY
    def test_sigkill_mid_sweep_yields_serial_digests(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.setattr(pool_module, "_execute",
                            _CrashWorker(str(tmp_path / "crashed")))
        cells = plan_cells(_base(seed=10, noise=UniformNoise(4.0)),
                           SIZES, COUNTS)
        serial, _ = run_cells(cells, jobs=1)
        p = WorkerPool(2)
        try:
            rescued, stats = run_cells(cells, jobs=2, pool=p)
        finally:
            p.shutdown()
        assert (tmp_path / "crashed").exists()
        assert _digests(rescued) == _digests(serial)
        # One rebuild, and every lost task ran again on the new workers.
        assert stats.pool.booted_workers == 4
        assert stats.pool.inline_tasks == 0

    @FORK_ONLY
    def test_worker_dying_with_the_result_lock_held_does_not_hang(
            self, monkeypatch, tmp_path):
        """Regression: a worker killed mid-send left the shared result
        queue's write lock held, so the surviving worker's results
        blocked behind it and the sweep hung forever."""
        monkeypatch.setattr(cf_process, "_process_worker",
                            _HoldResultLockOnce(str(tmp_path / "crashed")))
        cells = plan_cells(_base(seed=9), SIZES, COUNTS)
        serial, _ = run_cells(cells, jobs=1)
        p = WorkerPool(2)
        outcome = {}
        sweep = threading.Thread(
            target=lambda: outcome.update(
                run=run_cells(cells, jobs=2, pool=p)),
            daemon=True)
        try:
            sweep.start()
            sweep.join(timeout=60.0)
            assert not sweep.is_alive(), "the pool hung after the crash"
        finally:
            p.shutdown()
        rescued, stats = outcome["run"]
        assert _digests(rescued) == _digests(serial)
        assert stats.pool.booted_workers == 4

    @FORK_ONLY
    def test_no_spawnable_workers_degrades_inline(self, monkeypatch):
        # Every worker dies on its first task, so no worker the pool
        # spawns survives: the rebuilt executor breaks too, and the
        # manager must run every task itself rather than rebuild
        # forever or hang.
        monkeypatch.setattr(pool_module, "_execute", _CrashWorker())
        cells = plan_cells(_base(seed=8), [1024], COUNTS)
        serial, _ = run_cells(cells, jobs=1)
        p = WorkerPool(2)
        try:
            inline, stats = run_cells(cells, jobs=2, pool=p)
        finally:
            p.shutdown()
        assert _digests(inline) == _digests(serial)
        assert stats.pool.booted_workers == 4       # two executors
        assert stats.pool.inline_tasks == len(cells)
        assert f"{len(cells)} inline" in stats.describe()

    def test_worker_exception_raises_structured_error(self, pool):
        with pytest.raises(PoolTaskError, match="boom-key") as info:
            list(pool.run(["not-a-config"], keys=["boom-key"]))
        # The worker's traceback text rides along.
        assert "Traceback (most recent call last)" in str(info.value)
        assert "run_ptp_benchmark" in str(info.value)
        # The pool survives a failed run: fresh work still completes.
        config = plan_cells(_base(seed=8), [1024], [1])[0]
        (key, frame), = pool.run([config])
        assert decode_result(config, frame).event_digest == \
            run_ptp_benchmark(config).event_digest


# ---------------------------------------------------------------------------
# The wire format and run accounting
# ---------------------------------------------------------------------------

class TestShippedRoundTrip:
    def test_ship_then_unship_is_lossless(self):
        config = plan_cells(_base(noise=UniformNoise(4.0)), [1024], [4])[0]
        fresh = run_ptp_benchmark(config)
        back = decode_result(config, encode_result(fresh))
        assert back.event_digest == fresh.event_digest
        assert back.trials == fresh.trials
        assert [s.timeline for s in back.samples] == \
            [s.timeline for s in fresh.samples]
        assert [s.metrics for s in back.samples] == \
            [s.metrics for s in fresh.samples]


class TestPoolRunStats:
    def test_absorb_accumulates_everything(self):
        total = PoolRunStats()
        total.absorb(PoolRunStats(tasks=3, warm_tasks=1, booted_workers=2,
                                  inline_tasks=1))
        total.absorb(PoolRunStats(tasks=2, warm_tasks=2, inline_tasks=1))
        assert total.tasks == 5
        assert total.warm_tasks == 3
        assert total.booted_workers == 2
        assert total.inline_tasks == 2
        assert total.stolen_tasks == 0

    def test_session_adds_its_counters_to_the_pool_once(self, pool):
        cells = plan_cells(_base(seed=5), SIZES, COUNTS)
        assert len(list(pool.run(cells))) == len(cells)
        assert pool.stats.tasks == len(cells)
        _, stats = run_cells(cells, jobs=2, pool=pool)
        assert stats.pool.tasks == len(cells)
        assert pool.stats.tasks == 2 * len(cells)
        assert pool.stats.warm_tasks == stats.pool.warm_tasks == len(cells)

    def test_sweep_stats_absorb_sums_the_pool_counters(self):
        inline = SweepStats(jobs=2, total_cells=3, executed=2, cache_hits=1,
                            analytic=1, trials=4, singleflight_hits=1)
        pooled = SweepStats(jobs=2, total_cells=2, executed=2, trials=2,
                            pool=PoolRunStats(tasks=2, warm_tasks=2))
        total = SweepStats(jobs=2)
        total.absorb(inline)
        assert total.pool is None       # inline drains carry no pool
        total.absorb(pooled)
        total.absorb(pooled)
        assert (total.total_cells, total.executed, total.cache_hits,
                total.analytic, total.trials, total.singleflight_hits) == \
            (7, 6, 1, 1, 8, 1)
        assert total.pool.warm_tasks == 4
        assert total.pool.tasks == 4
        assert pooled.pool.tasks == 2   # the absorbed record is untouched
        assert total.describe().endswith(
            ", 1 single-flight, 4 warm (jobs=2)")

    def test_pool_emits_lifecycle_events(self, pool):
        from repro.obs import MemorySink
        sink = MemorySink()
        pool.obs.attach(sink, ["pool.*"])
        cells = plan_cells(_base(seed=3), [1024], COUNTS)
        run_cells(cells, jobs=2, pool=pool)
        # One dispatch per submitted task, and nothing else.
        assert [(rec.kind.name, rec.values) for rec in sink.records] == \
            [("pool.dispatch_batch", (1,))] * len(cells)


# ---------------------------------------------------------------------------
# Dispatch: one future per task
# ---------------------------------------------------------------------------

class TestBatchedDispatch:
    def test_warm_pool_batches_and_matches_serial(self, pool):
        # Cold and warm runs dispatch one task per batch and match serial.
        cells = plan_cells(_base(seed=13, noise=UniformNoise(4.0)),
                           SIZES, COUNTS)
        dispatched = pool.obs.record("pool.dispatch_batch")
        serial, _ = run_cells(cells, jobs=1)
        cold, _ = run_cells(cells, jobs=2, pool=pool)
        warm, _ = run_cells(cells, jobs=2, pool=pool)
        assert _digests(cold) == _digests(serial)
        assert _digests(warm) == _digests(serial)
        assert [rec.values for rec in dispatched.records] == \
            [(1,)] * (2 * len(cells))

    def test_invalid_max_chunk_rejected(self):
        # Chunked dispatch is gone, and its option with it.
        with pytest.raises(TypeError):
            WorkerPool(2, max_chunk=0)


# ---------------------------------------------------------------------------
# Deferred inline fallback (regression: eager execution at submit time)
# ---------------------------------------------------------------------------

class TestDeferredInlineFallback:
    def test_inline_fallback_defers_execution_to_drain(self):
        from repro.core.runner import EXECUTIONS
        run = PoolRun(None)  # no pool: every task runs inline
        config = plan_cells(_base(seed=8), [1024], [1])[0]
        EXECUTIONS.reset()
        run.submit("cell", config)
        # submit() must only *queue* the task; the inline engine does no
        # simulation work until the drain loop runs.
        assert EXECUTIONS.value == 0
        drained = dict(run.results())
        assert EXECUTIONS.value == 1
        assert run.stats.inline_tasks == 1
        assert decode_result(config, drained["cell"]) \
            .event_digest == run_ptp_benchmark(config).event_digest


# ---------------------------------------------------------------------------
# Runs sharing one pool
# ---------------------------------------------------------------------------

class TestSessionOwnership:
    def test_concurrent_sweeps_on_one_pool_both_finish(self, pool):
        """Four threads sweep on one pool at once; each gets exactly its
        own results (a regression once deadlocked two live runs)."""
        import sys
        grids = [plan_cells(_base(seed=41 + k), SIZES, COUNTS)
                 for k in range(4)]
        outcome = {}

        def sweep(k):
            outcome[k] = run_cells(grids[k], jobs=2, pool=pool)

        threads = [threading.Thread(target=sweep, args=(k,), daemon=True)
                   for k in range(len(grids))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive(), "concurrent sweep deadlocked"
        finally:
            sys.setswitchinterval(interval)
        for k, cells in enumerate(grids):
            serial, _ = run_cells(cells, jobs=1)
            assert _digests(outcome[k][0]) == _digests(serial)

    def test_abandoned_session_releases_the_pool(self, pool):
        cells = plan_cells(_base(seed=43), SIZES, COUNTS)
        abandoned = pool.run(cells)
        next(abandoned)                   # walk away mid-run
        abandoned.close()                 # cancels what had not started
        assert pool.stats.tasks == 1
        # Tasks still running from the abandoned run finish unread; the
        # next sweep drains normally.
        serial, _ = run_cells(cells, jobs=1)
        again, _ = run_cells(cells, jobs=2, pool=pool)
        assert _digests(again) == _digests(serial)

    def test_jobs1_creates_no_process_queue_or_pipe(self, monkeypatch):
        import multiprocessing.context
        import multiprocessing.process

        def forbidden(*args, **kwargs):
            raise AssertionError("jobs=1 touched multiprocessing")

        for name in ("Queue", "SimpleQueue", "Pipe"):
            monkeypatch.setattr(multiprocessing.context.BaseContext, name,
                                forbidden)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            forbidden)
        cells = plan_cells(_base(seed=44), SIZES, COUNTS)
        results, stats = run_cells(cells, jobs=1)
        assert len(results) == len(cells)
        assert stats.pool is None

    def test_jobs1_never_imports_the_executor(self):
        # Neither importing the package nor an inline sweep may pay for
        # concurrent.futures or multiprocessing; a fresh interpreter shows
        # what this one, which other tests have pooled in, cannot.
        code = (
            "import sys\n"
            "from repro.core import PtpBenchmarkConfig, plan_cells, "
            "run_cells\n"
            "base = PtpBenchmarkConfig(message_bytes=64, partitions=1, "
            "compute_seconds=1e-4, iterations=1)\n"
            "run_cells(plan_cells(base, [1024], [1, 4]), jobs=1)\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('concurrent', 'multiprocessing'))))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(pool_module.__file__))]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Shutdown hygiene: queue draining and fd release
# ---------------------------------------------------------------------------

class TestShutdownHygiene:
    def test_shutdown_closes_every_queue_end(self):
        """shutdown() joins every worker and winds the executor down.

        Regression: an earlier pool left pipe fds and a queue feeder
        thread behind on shutdown — a per-pool leak once a long-running
        service starts and stops pools repeatedly.  (CI runs this file
        with ResourceWarning as an error, which catches unclosed pipes.)
        """
        before = {p.pid for p in multiprocessing.active_children()}
        p = WorkerPool(2)
        cells = plan_cells(_base(seed=31), [1024, 65536], [1, 4])
        run_cells(cells, jobs=2, pool=p)
        workers = [w for w in multiprocessing.active_children()
                   if w.pid not in before]
        assert len(workers) == 2, "the sweep should have started workers"
        p.shutdown()
        assert not any(w.is_alive() for w in workers)
        assert p.started_workers == 0
        p.shutdown()                        # idempotent

    def test_shutdown_on_fresh_pool_drains_nothing(self):
        p = WorkerPool(1)
        p.shutdown()                        # no executor was ever built
        assert p.started_workers == 0 and p.stats.booted_workers == 0

    def test_shutdown_under_inflight_sweep_leaves_no_stale_claims(
            self, tmp_path):
        """A pool shut down mid-sweep still answers and stores every cell.

        The sweep degrades to inline execution, returns every result and
        leaves the full result set in the shared cache.
        """
        import threading

        from repro.core import ResultCache

        cache = ResultCache(tmp_path / "cache")
        cells = plan_cells(_base(seed=32), [1024, 65536], [1, 4])
        p = WorkerPool(2)
        dispatched = p.obs.record("pool.dispatch_batch")
        outcome = {}

        def sweep():
            outcome["run"] = run_cells(cells, jobs=2, cache=cache, pool=p)

        runner = threading.Thread(target=sweep)
        runner.start()
        # Shut the pool down as soon as the sweep hands out its first task.
        deadline = time.monotonic() + 60.0
        while not len(dispatched) and runner.is_alive():
            assert time.monotonic() < deadline, "sweep never dispatched"
            time.sleep(0.001)
        p.shutdown()
        runner.join(timeout=120.0)
        assert not runner.is_alive(), "sweep never completed"

        results, stats = outcome["run"]
        assert len(results) == len(cells)
        assert all(r.event_digest is not None for r in results)
        # Every cell's result is really in the shared store.
        for config in cells:
            assert cache.get(config) is not None
