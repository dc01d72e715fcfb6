"""The persistent worker pool: warm reuse, stealing, crash recovery."""

import os
import threading
import time

import pytest

import repro.core.pool as pool_module
from repro.core import (METRIC_NAMES, PtpBenchmarkConfig, SweepStats,
                        WorkerPool, plan_cells, run_cells, run_ptp_benchmark,
                        sweep_ptp)
from repro.core.pool import (PoolRunStats, PoolTaskError, shared_pool,
                             shutdown_shared_pool)
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
            assert len(stats.pool.worker_tasks) <= len(cells)
            assert shared_pool(64).started_workers <= len(cells)
        finally:
            shutdown_shared_pool()

    def test_closed_pool_rejects_sessions(self, pool):
        pool.shutdown()
        with pytest.raises(ConfigurationError):
            pool.session()

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
        assert sum(p_stats.pool.worker_tasks.values()) == s_stats.trials

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
# Work stealing under a skewed grid
# ---------------------------------------------------------------------------

class TestWorkStealing:
    def test_skewed_grid_steals_and_stays_deterministic(self, pool):
        # One expensive cell submitted first, cheap cells behind it: the
        # second worker drains its own queue and must steal the heavy
        # worker's backlog instead of idling.
        heavy = _base(message_bytes=1 << 20, partitions=32, iterations=6,
                      noise=UniformNoise(4.0), seed=9)
        light = [_base(message_bytes=256, partitions=1, iterations=1,
                       noise=UniformNoise(4.0), seed=9 + i)
                 for i in range(5)]
        cells = [heavy] + light
        serial, _ = run_cells(cells, jobs=1)
        pooled, stats = run_cells(cells, jobs=2, pool=pool)
        assert _digests(pooled) == _digests(serial)
        assert stats.pool.stolen_tasks >= 1
        assert pool.stats.stolen_tasks == stats.pool.stolen_tasks

    def test_describe_surfaces_pool_counters(self, pool):
        cells = plan_cells(_base(seed=6), SIZES, COUNTS)
        _, stats = run_cells(cells, jobs=2, pool=pool)
        line = stats.describe()
        assert "warm" in line and "stolen" in line
        assert "w0:" in line            # per-worker spread
        # Serial runs keep the pre-pool provenance line.
        _, serial_stats = run_cells(cells, jobs=1)
        assert "warm" not in serial_stats.describe()


# ---------------------------------------------------------------------------
# Crash recovery: degrade, never hang
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    def test_dead_worker_is_detected_and_work_rescued(self, pool):
        cells = plan_cells(_base(seed=8), SIZES, COUNTS)
        run_cells(cells, jobs=2, pool=pool)           # boot both workers
        victim = min(pool._workers)                   # lowest id gets
        pool._workers[victim].process.kill()          # the next dispatch
        pool._workers[victim].process.join()
        serial, _ = run_cells(cells, jobs=1)
        rescued, stats = run_cells(cells, jobs=2, pool=pool)
        assert _digests(rescued) == _digests(serial)
        assert pool.stats.crashed_workers >= 1
        assert victim not in pool._workers

    @pytest.mark.skipif(pool_module._START_METHOD != "fork",
                        reason="the patched worker loop reaches workers "
                               "only through fork")
    def test_worker_dying_with_the_result_lock_held_does_not_hang(
            self, monkeypatch):
        """Regression: a worker killed mid-send left the shared result
        queue's write lock held, so the surviving worker's results
        blocked behind it and the sweep hung forever."""
        real_main = pool_module._worker_main

        def worker_main(worker_id, tasks, results):
            if worker_id == 0:
                results._wlock.acquire()    # as if killed mid-send
                os._exit(1)
            real_main(worker_id, tasks, results)

        monkeypatch.setattr(pool_module, "_worker_main", worker_main)
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
        assert stats.pool.crashed_workers >= 1

    def test_no_spawnable_workers_degrades_inline(self):
        # With the worker ceiling forced to zero the manager must run
        # every task itself rather than hang waiting for processes that
        # can never exist.
        p = WorkerPool(1)
        try:
            p.max_workers = 0
            cells = plan_cells(_base(seed=8), [1024], COUNTS)
            serial, _ = run_cells(cells, jobs=1)
            inline, stats = run_cells(cells, jobs=2, pool=p)
            assert _digests(inline) == _digests(serial)
            assert stats.pool.worker_tasks == {-1: len(cells)}
        finally:
            p.shutdown()

    def test_worker_exception_raises_structured_error(self, pool):
        with pytest.raises(PoolTaskError, match="boom-key"):
            list(pool.run(["not-a-config"], keys=["boom-key"]))
        # The pool survives a failed run: the next session's epoch
        # ignores any stale leftovers and fresh work still completes.
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
        total.absorb(PoolRunStats(tasks=3, warm_tasks=1, stolen_tasks=1,
                                  booted_workers=2, crashed_workers=1,
                                  inline_tasks=1, worker_tasks={0: 2, 1: 1}))
        total.absorb(PoolRunStats(tasks=2, worker_tasks={1: 2}))
        assert total.tasks == 5
        assert total.warm_tasks == 1
        assert total.stolen_tasks == 1
        assert total.booted_workers == 2
        assert total.crashed_workers == 1
        assert total.inline_tasks == 1
        assert total.worker_tasks == {0: 2, 1: 3}

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
                            pool=PoolRunStats(tasks=2, warm_tasks=2,
                                              worker_tasks={0: 2}))
        total = SweepStats(jobs=2)
        total.absorb(inline)
        assert total.pool is None       # inline drains carry no pool
        total.absorb(pooled)
        total.absorb(pooled)
        assert (total.total_cells, total.executed, total.cache_hits,
                total.analytic, total.trials, total.singleflight_hits) == \
            (7, 6, 1, 1, 8, 1)
        assert total.pool.warm_tasks == 4
        assert total.pool.worker_tasks == {0: 4}
        assert pooled.pool.tasks == 2   # the absorbed record is untouched
        assert "4 warm, 0 stolen [w0:4]" in total.describe()

    def test_pool_emits_lifecycle_events(self, pool):
        from repro.obs import MemorySink
        sink = MemorySink()
        pool.obs.attach(sink, ["pool.*"])
        cells = plan_cells(_base(seed=3), [1024], COUNTS)
        run_cells(cells, jobs=2, pool=pool)
        kinds = {rec.kind.name for rec in sink.records}
        assert "pool.worker_boot" in kinds
        assert "pool.dispatch" in kinds
        assert "pool.dispatch_batch" in kinds
        assert "pool.result" in kinds
        assert "pool.result_batch" in kinds
        assert "pool.drain" in kinds


# ---------------------------------------------------------------------------
# Batched dispatch
# ---------------------------------------------------------------------------

class TestBatchedDispatch:
    def test_warm_pool_batches_and_matches_serial(self, pool):
        # The first run observes per-task cost; the second runs with a
        # calibrated chunk size.  Digests must match serial either way.
        cells = plan_cells(_base(seed=13, noise=UniformNoise(4.0)),
                           SIZES, COUNTS)
        serial, _ = run_cells(cells, jobs=1)
        cold, _ = run_cells(cells, jobs=2, pool=pool)
        warm, _ = run_cells(cells, jobs=2, pool=pool)
        assert _digests(cold) == _digests(serial)
        assert _digests(warm) == _digests(serial)
        assert pool._task_cost is not None  # the EMA is being fed

    def test_chunk_size_tracks_observed_cost(self):
        p = WorkerPool(2, max_chunk=32)
        try:
            assert p._chunk_size() == 1          # cold: per-task dispatch
            p._observe_cost(1e-4)                # cheap tasks -> big chunks
            assert p._chunk_size() == 32
            p._observe_cost(10.0)                # expensive -> per-task
            assert p._chunk_size() == 1
        finally:
            p.shutdown()

    def test_max_chunk_one_restores_per_task_dispatch(self):
        p = WorkerPool(2, max_chunk=1)
        try:
            p._observe_cost(1e-6)
            assert p._chunk_size() == 1
            cells = plan_cells(_base(seed=13), [1024], COUNTS)
            serial, _ = run_cells(cells, jobs=1)
            per_task, _ = run_cells(cells, jobs=2, pool=p)
            assert _digests(per_task) == _digests(serial)
        finally:
            p.shutdown()

    def test_invalid_max_chunk_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(2, max_chunk=0)


# ---------------------------------------------------------------------------
# Deferred inline fallback (regression: eager execution at submit time)
# ---------------------------------------------------------------------------

class TestDeferredInlineFallback:
    def test_inline_fallback_defers_execution_to_drain(self):
        from repro.core.runner import EXECUTIONS
        p = WorkerPool(1)
        try:
            p.max_workers = 0  # no worker can ever spawn
            config = plan_cells(_base(seed=8), [1024], [1])[0]
            session = p.session()
            EXECUTIONS.reset()
            session.submit("cell", config)
            # submit() must only *queue* the task; a crash-degraded
            # manager does no simulation work until the drain loop runs.
            assert EXECUTIONS.value == 0
            drained = dict(session.results())
            assert EXECUTIONS.value == 1
            assert session.stats.inline_tasks == 1
            assert decode_result(config, drained["cell"]) \
                .event_digest == run_ptp_benchmark(config).event_digest
        finally:
            p.shutdown()


# ---------------------------------------------------------------------------
# One session owns the pool at a time
# ---------------------------------------------------------------------------

class TestSessionOwnership:
    def test_concurrent_sweeps_on_one_pool_both_finish(self, pool):
        """Regression: two live sessions used to deadlock one pool.

        Each session bumped the pool-wide epoch, so the other one's
        chunk replies looked stale and never freed their workers, and
        both sessions' task ids mixed in one worker deque.
        """
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
        with pool.session() as session:
            for i, config in enumerate(cells):
                session.submit(i, config)
            next(session.results())       # walk away mid-run
        # Chunks still running from the abandoned run arrive stale; the
        # next sweep frees their workers and drains normally.
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


# ---------------------------------------------------------------------------
# Shutdown hygiene: queue draining and fd release
# ---------------------------------------------------------------------------

class TestShutdownHygiene:
    def test_shutdown_closes_every_queue_end(self):
        """shutdown() must close task pipes and wind down the result queue.

        Regression: shutdown() used to leave every worker's SimpleQueue
        pipe fds open and cancel the result queue's feeder thread with
        live buffers — a per-pool fd/thread leak once a long-running
        service starts and stops pools repeatedly.
        """
        p = WorkerPool(2)
        cells = plan_cells(_base(seed=31), [1024, 65536], [1, 4])
        run_cells(cells, jobs=2, pool=p)
        workers = list(p._workers.values())
        assert workers, "the sweep should have spawned workers"
        drained = p.shutdown()
        assert isinstance(drained, int)     # the drained-message count
        for worker in workers:
            assert worker.tasks._reader.closed
            assert worker.tasks._writer.closed
        assert p._results._closed
        assert p.shutdown() == 0            # idempotent, still an int

    def test_shutdown_on_fresh_pool_drains_nothing(self):
        p = WorkerPool(1)
        assert p.shutdown() == 0

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
        dispatched = p.obs.record("pool.dispatch")
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
