"""Simulator-kernel micro-benchmarks.

Not a paper figure: these guard the substrate's own performance, since
every figure reproduction pays the kernel's event-dispatch cost.  They use
pytest-benchmark's normal multi-round timing (the operations are cheap).

``scripts/bench_guard.py`` mirrors these workloads with a plain-stdlib
timer and fails CI on >2x regressions against ``BENCH_BASELINE.json``;
keep the two in sync when adding kernels here.
"""

from repro.analysis import lint_source
from repro.core import (PtpBenchmarkConfig, PtpResult, SweepPoint,
                        SweepResult, run_ptp_benchmark)
from repro.obs import CounterSink, EventBus
from repro.obs.kinds import PART_PREADY
from repro.sim import Simulator, Store


def test_kernel_timeout_dispatch(benchmark):
    def run():
        sim = Simulator()
        for _ in range(1000):
            sim.timeout(1.0)
        sim.run()
        return sim.events_processed

    assert benchmark(run) == 1000


def test_kernel_process_switching(benchmark):
    def run():
        sim = Simulator()

        def proc():
            for _ in range(100):
                yield sim.timeout(1.0)

        for _ in range(10):
            sim.process(proc())
        sim.run()
        return sim.now

    assert benchmark(run) == 100.0


def test_kernel_store_handoff(benchmark):
    def run():
        sim = Simulator()
        store = Store(sim)

        def producer():
            for i in range(500):
                yield sim.timeout(0.001)
                store.put(i)

        def consumer():
            total = 0
            for _ in range(500):
                total += yield store.get()
            return total

        sim.process(producer())
        c = sim.process(consumer())
        sim.run()
        return c.value

    assert benchmark(run) == sum(range(500))


def test_kernel_never_waited_timeouts(benchmark):
    """The lazy-callback fast path: events processed with no waiter.

    Compute delays and NIC gaps are fired-and-forgotten far more often
    than they are waited on; this guards the no-allocation dispatch of
    such events.
    """

    def run():
        sim = Simulator()
        for _ in range(2000):
            sim.timeout(1.0)
        sim.run()
        return sim.events_processed

    assert benchmark(run) == 2000


def test_sweep_point_lookup(benchmark):
    """O(1) cell lookup on a figure-sized grid (guards the sweep index)."""
    sizes = [64 * 4 ** k for k in range(10)]
    counts = [1, 2, 4, 8, 16, 32]
    sweep = SweepResult()
    for n in counts:
        for m in sizes:
            if m < n:
                continue
            cfg = PtpBenchmarkConfig(message_bytes=m, partitions=n)
            sweep.add(SweepPoint(config=cfg, result=PtpResult(config=cfg)))

    def run():
        hits = 0
        for _ in range(50):
            for n in counts:
                for m in sizes:
                    if m >= n:
                        hits += sweep.point(m, n).config.partitions
        return hits

    assert benchmark(run) > 0


def test_obs_emission_disabled(benchmark):
    """Instrumentation with no subscriber: the near-zero-cost fast path.

    Every runtime hot path (pready, matching, NIC) emits unconditionally;
    the bus must make an unsubscribed emit one list index plus a falsy
    test.  ``scripts/bench_guard.py`` holds this kernel to a 5% budget
    over baseline (tighter than the 2x default).
    """
    bus = EventBus()

    def run():
        emit = bus.emit
        for _ in range(100_000):
            emit(PART_PREADY, 1.0, 0, 0, 0, None)
        return bus.subscribed(PART_PREADY)

    assert benchmark(run) is False


def test_obs_emission_counted(benchmark):
    """Emission with one cheap aggregating subscriber (CounterSink)."""
    bus = EventBus()
    counters = bus.attach(CounterSink(), ("part.pready",))

    def run():
        emit = bus.emit
        for _ in range(10_000):
            emit(PART_PREADY, 1.0, 0, 0, 0, None)
        return True

    assert benchmark(run)
    assert counters.count("part.pready") >= 10_000


def _lint_workload() -> str:
    """A synthetic ~400-line module exercising both analyzer passes.

    Each function carries a full partitioned epoch with loops and
    branches, so the flow pass builds a CFG and runs its fixpoint per
    function while the pattern pass walks the same AST.  Synthesized
    (not read from the tree) so the score does not drift when unrelated
    shipped code changes.
    """
    template = (
        "def exchange_{i}(ctx, comm, tc):\n"
        "    ps = yield from comm.psend_init(tc, 1, {i}, 4096, 8)\n"
        "    pr = yield from comm.precv_init(tc, 1, {i}, 4096, 8)\n"
        "    for epoch in range(4):\n"
        "        yield from ps.start(tc)\n"
        "        yield from pr.start(tc)\n"
        "        for p in range(0, 4):\n"
        "            ps.note_buffer_write(p)\n"
        "            yield from ps.pready(tc, p)\n"
        "        if epoch > 1:\n"
        "            yield from ps.pready_range(tc, 4, 5)\n"
        "            yield from ps.pready_range(tc, 6, 7)\n"
        "        else:\n"
        "            for p in range(4, 8):\n"
        "                yield from ps.pready(tc, p)\n"
        "        yield from ps.wait(tc)\n"
        "        yield from pr.wait(tc)\n"
        "    return ps, pr\n"
    )
    return "\n".join(template.format(i=i) for i in range(16))


def test_lint_throughput(benchmark):
    """Both simlint passes over a synthetic module (guards analyzer cost).

    The flow-sensitive pass runs a worklist fixpoint per function; this
    keeps its cost visible so CFG or domain changes that blow up lint
    time on the shipped ``lint src/repro benchmarks examples`` CI step
    get caught here first.
    """
    source = _lint_workload()

    def run():
        return lint_source(source, "workload.py")

    assert benchmark(run) == []


def test_end_to_end_trial_cost(benchmark):
    """One full micro-benchmark trial (the unit every sweep repeats)."""
    cfg = PtpBenchmarkConfig(message_bytes=1 << 16, partitions=8,
                             compute_seconds=1e-3, iterations=1, warmup=0)

    result = benchmark(run_ptp_benchmark, cfg)
    assert result.samples


def test_analytic_eval_cost(benchmark):
    """The closed-form answer for a paper-grid cell (no simulator).

    Mirrors the ``analytic_eval`` guard kernel; the guard additionally
    holds it to <= 1/100th of the same cell's DES trial
    (``paper_cell_trial``) measured in the same run.
    """
    from repro.analytic import evaluate_analytic
    cfg = PtpBenchmarkConfig(message_bytes=1 << 20, partitions=32,
                             compute_seconds=0.010, iterations=10, warmup=1)

    result = benchmark(evaluate_analytic, cfg)
    assert result.source == "analytic"
    assert len(result.samples) == cfg.iterations


def test_planner_overhead_cost(benchmark):
    """A fixed-trial (min == max == 1) planner run on a noisy cell.

    Mirrors the ``planner_overhead`` guard kernel (budgeted at 1.05x the
    plain ``run_cells(..., jobs=1)`` run of the same cell): forcing
    exactly one trial isolates the planner's convergence check + merge +
    digest rehash.
    """
    from repro.core import run_cells
    from repro.metrics import AdaptiveTrialPlanner
    from repro.noise import UniformNoise
    cfg = PtpBenchmarkConfig(message_bytes=1 << 16, partitions=8,
                             compute_seconds=1e-3, iterations=16, warmup=0,
                             noise=UniformNoise(4.0))
    planner = AdaptiveTrialPlanner(min_trials=1, max_trials=1)

    def run():
        (result,), _ = run_cells([cfg], jobs=1, planner=planner)
        return result

    result = benchmark(run)
    assert result.trials == 1
    assert result.samples


def test_faults_off_trial_cost(benchmark):
    """The trial with the fault hooks explicitly disabled.

    Mirrors the ``faults_off_overhead`` guard kernel: a clean config
    rides the full hook path (NIC fault checks, transmit tracking test,
    frame-handler prelude) with every hook off — the difference from
    ``test_end_to_end_trial_cost`` is the cost of having a fault
    subsystem at all, which should be indistinguishable from zero.
    """
    cfg = PtpBenchmarkConfig(message_bytes=1 << 16, partitions=8,
                             compute_seconds=1e-3, iterations=1, warmup=0,
                             faults=None)

    result = benchmark(run_ptp_benchmark, cfg)
    assert result.samples
    assert result.fault_outcome is None


def _ship_fixture():
    """One realistic shipped result (8 samples x 8 partitions) + config."""
    from repro.core import plan_cells
    base = PtpBenchmarkConfig(message_bytes=1 << 16, partitions=8,
                              compute_seconds=1e-4, iterations=8, warmup=0)
    config = plan_cells(base, [1 << 16], [8])[0]
    return config, run_ptp_benchmark(config)


def test_ship_roundtrip_codec(benchmark):
    """Result -> binary wire frame -> queue pickle -> result.

    Mirrors the ``ship_roundtrip_codec`` guard kernel: the one result
    format every pool worker and cache entry uses.
    """
    import pickle
    from repro.core.wire import decode_result, encode_result
    config, result = _ship_fixture()

    def run():
        frame = pickle.loads(pickle.dumps(encode_result(result)))
        return len(decode_result(config, frame).samples)

    assert benchmark(run) == len(result.samples)


def test_cache_hot_get(benchmark, tmp_path):
    """A hot get through the sharded cache's disk tier.

    Mirrors the ``cache_hot_get`` guard kernel (<= 1.1x a bare flat
    read+decode in the same run): envelope validation, shard-path
    assembly, and counter bookkeeping must stay near-free.
    ``memory_entries=0`` forces every get down the disk path.
    """
    from repro.core import ResultCache
    config, result = _ship_fixture()
    cache = ResultCache(tmp_path / "cache", memory_entries=0)
    cache.put(config, result)

    def run():
        return len(cache.get(config).samples)

    assert benchmark(run) == len(result.samples)


def test_pool_warm_vs_cold_sweep(benchmark):
    """A 4-cell sweep on a kept warm pool.

    Mirrors the ``pool_warm_sweep`` guard kernel; the guard additionally
    holds it to <= 0.5x ``pool_cold_spawn`` (the same sweep on a fresh
    ``WorkerPool(2)``: two process spawns, two boots, and a shutdown per
    call) measured in the same run — the boot-once promise of
    ``repro.core.pool``.
    """
    from repro.core import WorkerPool, plan_cells, run_cells

    base = PtpBenchmarkConfig(message_bytes=1024, partitions=1,
                              compute_seconds=1e-4, iterations=1, warmup=0)
    cells = plan_cells(base, [1024, 4096], [1, 2])
    pool = WorkerPool(2)
    try:
        run_cells(cells, jobs=2, pool=pool)  # boot untimed

        def run():
            results, stats = run_cells(cells, jobs=2, pool=pool)
            return len(results), stats.warm_hits

        assert benchmark(run) == (4, 4)
    finally:
        pool.shutdown()


def test_service_hot_request(benchmark, tmp_path):
    """One already-cached trial request through a live sweep daemon.

    Mirrors the ``service_hot_request`` guard kernel: the service's
    whole hot path — HTTP round-trip, strict validation, quota
    admission, scheduler dispatch, memory-tier cache hit — for a config
    the daemon has already answered.  No simulation runs.
    """
    from repro.core import ResultCache
    from repro.service import (ServiceClient, SweepScheduler,
                               payload_from_config, serve)

    config, result = _ship_fixture()
    cache = ResultCache(tmp_path / "cache")
    cache.put(config, result)
    scheduler = SweepScheduler(cache=cache, jobs=1, quota=1 << 16,
                               batch_window=0.0, dispatchers=1)
    service = serve(scheduler, port=0)
    client = ServiceClient("http://%s:%d" % service.address,
                           client_id="bench")
    payload = payload_from_config(config)
    try:
        def run():
            return client.trial(payload)["n_samples"]

        assert benchmark(run) == len(result.samples)
    finally:
        service.stop()
