#!/usr/bin/env python
"""The benchmark kernel registry and the regression guard over it.

:data:`KERNELS` is the one definition of every benchmark kernel that
guards the simulator and the layers around it: its body, and the value
it must return.  Two harnesses time the registry, and both check each
kernel's value on its untimed warm-up call:

* this script, with a plain stdlib timer, compared against the
  checked-in ``BENCH_BASELINE.json``.  Any kernel slower than its
  budget — ``--threshold`` (default 2.0) times baseline, or the tighter
  per-kernel entry in :data:`THRESHOLDS` (e.g. 1.05x for the
  disabled-subscriber emission path of ``repro.obs``) — fails the run,
  as does any pair over its same-run :data:`RATIO_CHECKS` budget;
* ``benchmarks/bench_kernel.py``, one pytest-benchmark test
  parametrized over :data:`KERNELS`.

Raw wall times are meaningless across machines, so every measurement is
normalized by a calibration loop (pure-Python arithmetic) timed on the
same host: the stored numbers are "calibration units", roughly stable
across hardware generations, and the 2x threshold absorbs the rest.
Kernels build their fixtures (kept pools, a cache directory, a live
daemon) on first use; :func:`teardown` stops and removes all of them.

Usage::

    python scripts/bench_guard.py              # compare against baseline
    python scripts/bench_guard.py --update     # rewrite the baseline
    python scripts/bench_guard.py --threshold 3.0 --json
    python scripts/bench_guard.py --json-out bench-report.json  # CI artifact
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import pathlib
import shutil
import sys
import tempfile
import time
from typing import Callable, Dict, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import lint_source  # noqa: E402
from repro.core import (PtpBenchmarkConfig, PtpResult, SweepPoint,  # noqa: E402
                        SweepResult, run_ptp_benchmark)
from repro.obs import CounterSink, EventBus  # noqa: E402
from repro.obs.kinds import PART_PREADY  # noqa: E402
from repro.sim import Simulator, Store  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_BASELINE.json"

#: Schema marker so stale baselines fail loudly instead of silently.
#: 2: adds the repro.obs emission kernels.
#: 3: re-captured after the kernel fast paths (immediate-event ring,
#:    time-bucketed future queue, recycled sleeps, single-waiter
#:    dispatch, record-free emission) — the dispatch-heavy kernels run
#:    1.3-2x faster, so v2 budgets would hide large regressions.
#:    (Extended in place with the analytic/planner kernels, the
#:    worker-pool warm/cold pair, and the result-plane kernels — wire
#:    codec round-trip, sharded vs flat cache get, batched vs per-task
#:    dispatch — additive entries only, existing scores untouched, so
#:    no version bump.  The dict round-trip kernel left with the dict
#:    result format.)
BASELINE_VERSION = 3


# ---------------------------------------------------------------------------
# The kernel registry
# ---------------------------------------------------------------------------

#: name -> ``(kernel, expected)``, in timing order: ``expected`` is the
#: value (of that exact type) the kernel must return.
KERNELS: Dict[str, Tuple[Callable[[], object], object]] = {}

#: Memoized fixture builders, and the undo actions of what they built.
_FIXTURES: List[Callable[[], object]] = []
_CLEANUPS: List[Callable[[], object]] = []


def kernel(expected):
    """Register the decorated function as a kernel returning ``expected``."""
    def register(fn):
        KERNELS[fn.__name__] = (fn, expected)
        return fn
    return register


def check(name: str, value) -> None:
    """Raise unless ``value`` is what kernel ``name`` must return."""
    expected = KERNELS[name][1]
    if type(value) is not type(expected) or value != expected:
        raise AssertionError(f"kernel {name} returned {value!r}, "
                             f"expected {expected!r}")


def warm_up(name: str) -> Callable[[], object]:
    """Run kernel ``name`` once, untimed, check its value; return it.

    The first call builds the kernel's fixtures and pays lazy imports,
    so neither lands in a timed repeat.
    """
    fn = KERNELS[name][0]
    check(name, fn())
    return fn


def _fixture(build):
    """Build once per registry lifetime; :func:`teardown` forgets it."""
    cached = functools.lru_cache(maxsize=None)(build)
    _FIXTURES.append(cached)
    return cached


def _temp_dir(prefix: str) -> pathlib.Path:
    root = pathlib.Path(tempfile.mkdtemp(prefix=prefix))
    _CLEANUPS.append(lambda: shutil.rmtree(root, ignore_errors=True))
    return root


def _kept_pool(**kwargs):
    from repro.core import WorkerPool
    pool = WorkerPool(2, **kwargs)
    _CLEANUPS.append(pool.shutdown)
    return pool


def teardown() -> None:
    """Stop the fixture daemon, shut the kept pools, remove temp dirs."""
    while _CLEANUPS:
        _CLEANUPS.pop()()
    for fixture in _FIXTURES:
        fixture.cache_clear()


@kernel(1000)
def timeout_dispatch():
    sim = Simulator()
    for _ in range(1000):
        sim.timeout(1.0)
    sim.run()
    return sim.events_processed


@kernel(2000)
def never_waited_timeouts():
    """The lazy-callback fast path: events fired with no waiter.

    Compute delays and NIC gaps are fired-and-forgotten far more often
    than they are waited on; this guards their no-allocation dispatch.
    """
    sim = Simulator()
    for _ in range(2000):
        sim.timeout(1.0)
    sim.run()
    return sim.events_processed


@kernel(100.0)
def process_switching():
    sim = Simulator()

    def proc():
        for _ in range(100):
            yield sim.timeout(1.0)

    for _ in range(10):
        sim.process(proc())
    sim.run()
    return sim.now


@kernel(sum(range(500)))
def store_handoff():
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


@kernel(1)
def end_to_end_trial():
    """One full micro-benchmark trial (the unit every sweep repeats)."""
    cfg = PtpBenchmarkConfig(message_bytes=1 << 16, partitions=8,
                             compute_seconds=1e-3, iterations=1, warmup=0)
    return len(run_ptp_benchmark(cfg).samples)


@kernel((16, None))
def faults_off_overhead():
    """A clean trial driven through the fault-hook plumbing.

    The ``end_to_end_trial`` workload at 16 iterations with
    ``faults=None`` spelled out: the config rides the full hook path
    (NIC fault checks, transmit tracking test, frame-handler prelude)
    with every hook disabled, and reports no fault outcome.  Its
    baseline entry was captured by running this exact kernel, with this
    file's timing methodology, on the tree immediately *before* the
    fault subsystem landed — so the 1.05x budget is exactly the promise
    "fault injection costs nothing when off".  16 iterations (vs 1)
    pushes the kernel to ~20ms so scheduler jitter amortizes below the
    5% budget.
    """
    cfg = PtpBenchmarkConfig(message_bytes=1 << 16, partitions=8,
                             compute_seconds=1e-3, iterations=16, warmup=0,
                             faults=None)
    result = run_ptp_benchmark(cfg)
    return len(result.samples), result.fault_outcome


#: The cell behind ``paper_cell_trial``/``analytic_eval``: a real
#: paper-grid point (1 MiB × 32 partitions, 10 ms compute, warmup + 10
#: iterations) — big enough that the DES run amortizes timer noise, and
#: analytic-eligible so both engines answer the identical question.  The
#: iteration count matters for the ratio check: DES cost scales with
#: iterations while the closed form prices the timeline once.
_PAPER_CELL = dict(message_bytes=1 << 20, partitions=32,
                   compute_seconds=0.010, iterations=10, warmup=1)


@kernel(10)
def paper_cell_trial():
    """One full DES trial of the reference paper-grid cell."""
    return len(run_ptp_benchmark(PtpBenchmarkConfig(**_PAPER_CELL)).samples)


@kernel(("analytic", 10))
def analytic_eval():
    """The closed-form answer for the same cell (no simulator).

    Budgeted at 1/100th of ``paper_cell_trial`` *in the same run* (see
    :data:`RATIO_CHECKS`) — the promise that analytic-eligible cache
    misses are answered in microseconds.
    """
    from repro.analytic import evaluate_analytic
    result = evaluate_analytic(PtpBenchmarkConfig(**_PAPER_CELL))
    return result.source, len(result.samples)


#: The cell behind the planner-overhead pair: noisy (so the planner does
#: not short-circuit) and 16 iterations so the ~20 ms runtime amortizes
#: scheduler jitter below the 5% budget, like ``faults_off_overhead``.
_PLANNER_CELL = dict(message_bytes=1 << 16, partitions=8,
                     compute_seconds=1e-3, iterations=16, warmup=0)


def _planner_run(planner):
    """The noisy planner cell through ``run_cells(..., jobs=1)``:
    ``(trials, samples)`` of its one result."""
    from repro.core import run_cells
    from repro.noise import UniformNoise
    cfg = PtpBenchmarkConfig(noise=UniformNoise(4.0), **_PLANNER_CELL)
    (result,), _ = run_cells([cfg], jobs=1, planner=planner)
    return result.trials, len(result.samples)


@kernel((1, 16))
def planner_reference():
    """The planner pair's control: the same noisy cell, no planner."""
    return _planner_run(None)


@kernel((1, 16))
def planner_overhead():
    """A fixed-trial run through the adaptive planner's machinery.

    ``min_trials == max_trials == 1`` forces exactly the simulation
    ``planner_reference`` runs, through the same engine path; everything
    else — per-trial task keys, the convergence check that never fires,
    the sample merge, the digest rehash — is pure planner overhead,
    budgeted at 1.05x the reference in the same run.
    """
    from repro.metrics import AdaptiveTrialPlanner
    return _planner_run(AdaptiveTrialPlanner(min_trials=1, max_trials=1))


@_fixture
def _pool_cells():
    """The tiny grid behind the pool pair: four cells cheap enough that
    a process spawn for every sweep dominates, so the warm/cold ratio
    measures exactly the boot-once payoff the pool exists for."""
    from repro.core import plan_cells
    base = PtpBenchmarkConfig(message_bytes=1024, partitions=1,
                              compute_seconds=1e-4, iterations=1, warmup=0)
    return plan_cells(base, [1024, 4096], [1, 2])


@kernel(4)
def pool_cold_spawn():
    """A 4-cell sweep on a pool it builds and shuts down every time.

    Every call pays two process spawns, two worker boots, and the
    shutdown — what a sweep costs without a kept pool.
    """
    from repro.core import WorkerPool, run_cells
    pool = WorkerPool(2)
    try:
        results, _ = run_cells(_pool_cells(), jobs=2, pool=pool)
    finally:
        pool.shutdown()
    return len(results)


@_fixture
def _warm_pool():
    """A kept 2-worker pool, booted by one sweep of the pool grid."""
    from repro.core import run_cells
    pool = _kept_pool()
    run_cells(_pool_cells(), jobs=2, pool=pool)
    return pool


@kernel((4, 4))
def pool_warm_sweep():
    """The same 4-cell sweep on a kept, already-warm worker pool.

    Returns ``(cells, warm tasks)``: every task must land on a worker
    booted before the sweep.  Budgeted at <= 0.5x ``pool_cold_spawn``
    in the same run (:data:`RATIO_CHECKS`): if a warm re-sweep ever
    costs more than half a cold spawn, the persistent pool has lost its
    reason to exist.
    """
    from repro.core import run_cells
    results, stats = run_cells(_pool_cells(), jobs=2, pool=_warm_pool())
    return len(results), stats.pool.warm_tasks


@_fixture
def _ship_fixture():
    """One realistic shipped result (8 samples x 8 partitions) plus its
    fully resolved config: the result-plane kernels' payload."""
    from repro.core import plan_cells
    base = PtpBenchmarkConfig(message_bytes=1 << 16, partitions=8,
                              compute_seconds=1e-4, iterations=8, warmup=0)
    config = plan_cells(base, [1 << 16], [8])[0]
    return config, run_ptp_benchmark(config)


@kernel(50 * 8)
def ship_roundtrip_codec():
    """Result -> binary wire frame -> queue pickle -> result, 50 times.

    The result plane's only format: one struct-packed bytes object
    crosses the boundary.
    """
    import pickle
    from repro.core.wire import decode_result, encode_result
    config, result = _ship_fixture()
    n = 0
    for _ in range(50):
        frame = pickle.loads(pickle.dumps(encode_result(result)))
        n += len(decode_result(config, frame).samples)
    return n


@_fixture
def _cache_fixture():
    """One entry stored through the sharded cache, plus the identical
    wire frame at a flat shard-free path (the bare read+decode
    reference)."""
    from repro.core import ResultCache
    from repro.core.wire import encode_result
    config, result = _ship_fixture()
    root = _temp_dir("repro-bench-cache-")
    # memory_entries=0 forces every get down the disk path — the
    # kernel measures the sharded read+decode, not an OrderedDict hit.
    cache = ResultCache(root / "sharded", memory_entries=0)
    cache.put(config, result)
    flat = root / "flat.bin"
    flat.write_bytes(encode_result(result))
    return cache, flat, config


@kernel(100 * 8)
def cache_hot_get():
    """100 hot gets through the full sharded-cache API (disk tier).

    Envelope validation, shard-path assembly, and counter bookkeeping
    ride every get; budgeted at <= 1.1x ``cache_flat_get`` in the same
    run — the sharded layout and the cache's bookkeeping together may
    cost at most 10% over a bare flat read+decode.
    """
    cache, _, config = _cache_fixture()
    n = 0
    for _ in range(100):
        n += len(cache.get(config).samples)
    return n


@kernel(100 * 8)
def cache_flat_get():
    """The reference: 100 bare flat-file reads + frame decodes."""
    from repro.core.wire import decode_result
    _, flat, config = _cache_fixture()
    n = 0
    for _ in range(100):
        n += len(decode_result(config, flat.read_bytes()).samples)
    return n


@_fixture
def _batch_cells():
    """The grid behind the batched-dispatch pair: 64 distinct cheap DES
    cells, where per-message queue + pickling overhead dominates unless
    many cells ride one message."""
    from repro.core import plan_cells
    base = PtpBenchmarkConfig(message_bytes=64, partitions=1,
                              compute_seconds=1e-5, iterations=1, warmup=0)
    return plan_cells(base, [64 * (i + 1) for i in range(64)], [1])


_batched_pool = _fixture(_kept_pool)
_pertask_pool = _fixture(lambda: _kept_pool(max_chunk=1))


@kernel(64)
def pool_batched_sweep64():
    """64 cheap cells on a warm pool with adaptive chunked dispatch.

    The first (untimed warmup) call feeds the pool's per-task cost EMA,
    so the timed repeats dispatch calibrated multi-task chunks.
    Budgeted at <= 1.0x ``pool_pertask_sweep64`` in the same run: the
    batched result plane must beat strict per-task dispatch on exactly
    the workload batching exists for.
    """
    from repro.core import run_cells
    results, _ = run_cells(_batch_cells(), jobs=2, pool=_batched_pool())
    return len(results)


@kernel(64)
def pool_pertask_sweep64():
    """The same 64 cells with ``max_chunk=1``: one queue message per task
    (the pre-batching wire behaviour, kept as the comparison baseline).
    """
    from repro.core import run_cells
    results, _ = run_cells(_batch_cells(), jobs=2, pool=_pertask_pool())
    return len(results)


@_fixture
def _service_fixture():
    """A live daemon on an ephemeral loopback port with the ship-fixture
    result pre-cached, plus a client and the request payload addressing
    it."""
    from repro.core import ResultCache
    from repro.service import (ServiceClient, SweepScheduler,
                               payload_from_config, serve)
    config, result = _ship_fixture()
    cache = ResultCache(_temp_dir("repro-bench-service-"))
    cache.put(config, result)
    # batch_window=0 so the kernel times the request path, not the
    # straggler-collection window.
    scheduler = SweepScheduler(cache=cache, jobs=1, quota=1 << 16,
                               batch_window=0.0, dispatchers=1)
    service = serve(scheduler, port=0)
    _CLEANUPS.append(service.stop)
    client = ServiceClient("http://%s:%d" % service.address,
                           client_id="bench")
    return client, payload_from_config(config)


@kernel(25 * 8)
def service_hot_request():
    """25 already-cached trial requests through the live daemon.

    The sweep service's hot path end to end: HTTP round-trip, strict
    request validation, quota admission, scheduler dispatch, and a
    memory-tier cache hit — the cost a client pays for a config the
    daemon has already answered.  No simulation runs.
    """
    client, payload = _service_fixture()
    n = 0
    for _ in range(25):
        n += client.trial(payload)["n_samples"]
    return n


@_fixture
def _lookup_sweep():
    """A figure-sized grid (10 sizes x 6 counts) of empty results."""
    sizes = [64 * 4 ** k for k in range(10)]
    counts = [1, 2, 4, 8, 16, 32]
    sweep = SweepResult()
    for n in counts:
        for m in sizes:
            if m < n:
                continue
            cfg = PtpBenchmarkConfig(message_bytes=m, partitions=n)
            sweep.add(SweepPoint(config=cfg, result=PtpResult(config=cfg)))
    return sweep, sizes, counts


@kernel(50 * 10 * sum((1, 2, 4, 8, 16, 32)))
def sweep_point_lookup():
    """O(1) cell lookup on a figure-sized grid (guards the sweep index)."""
    sweep, sizes, counts = _lookup_sweep()
    hits = 0
    for _ in range(50):
        for n in counts:
            for m in sizes:
                if m >= n:
                    hits += sweep.point(m, n).config.partitions
    return hits


@kernel(False)
def obs_emission_disabled():
    """Instrumentation with no subscriber: the near-zero-cost fast path.

    Every runtime hot path (pready, matching, NIC) emits unconditionally;
    the bus must make an unsubscribed emit one list index plus a falsy
    test.  Held to a 5% budget over baseline (:data:`THRESHOLDS`).
    """
    bus = EventBus()
    emit = bus.emit
    for _ in range(100_000):
        emit(PART_PREADY, 1.0, 0, 0, 0, None)
    return bus.subscribed(PART_PREADY)


@kernel(10_000)
def obs_emission_counted():
    """Emission with one cheap aggregating subscriber (CounterSink)."""
    bus = EventBus()
    counters = bus.attach(CounterSink(), ("part.pready",))
    emit = bus.emit
    for _ in range(10_000):
        emit(PART_PREADY, 1.0, 0, 0, 0, None)
    return counters.total


@_fixture
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


@kernel([])
def lint_throughput():
    """Both simlint passes over the synthetic module: no findings.

    The flow-sensitive pass runs a worklist fixpoint per function; this
    keeps its cost visible so a CFG or domain change that blows up the
    ``lint src/repro benchmarks examples`` CI step is caught here first.
    """
    return lint_source(_lint_workload(), "workload.py")


#: Per-kernel regression budgets overriding ``--threshold``.  Emission
#: with no subscriber is the instrumentation layer's core promise — it
#: rides every simulator hot path — so it gets a hard 5% budget instead
#: of the forgiving 2x default.
THRESHOLDS = {
    "obs_emission_disabled": 1.05,
    # A clean trial against the pre-fault-subsystem baseline: the
    # disabled fault hooks on the NIC/transmit/handler paths must stay
    # within 5% of a tree that had no hooks at all.
    "faults_off_overhead": 1.05,
    # The two kernels the fast-path work targeted: a tight budget keeps
    # the ring / bucket / free-list wins from silently eroding.
    "timeout_dispatch": 1.25,
    "store_handoff": 1.25,
    # Both analyzer passes over the synthetic workload: the CI lint step
    # runs over the whole tree, so a super-linear blow-up in the flow
    # pass (CFG size, fixpoint visits) must not hide behind the 2x
    # default for long.
    "lint_throughput": 1.5,
}

#: Same-run cross-kernel budgets: ``current[a] <= limit * current[b]``.
#: Unlike the baseline thresholds these compare two kernels measured on
#: the same host in the same run, so no calibration drift can hide (or
#: fake) a violation.
RATIO_CHECKS = (
    # The analytic fast path must answer a cell in <= 1/100th of the
    # simulator's time for the identical paper-grid cell.
    ("analytic_eval", "paper_cell_trial", 0.01),
    # The adaptive planner's bookkeeping must be invisible (<= 5%) when
    # it is forced to run exactly the trials a plain run would.
    ("planner_overhead", "planner_reference", 1.05),
    # A warm re-sweep on a kept pool must cost at most half of the same
    # sweep paying spawn + boot + shutdown every time — the boot-once
    # promise of repro.core.pool.
    ("pool_warm_sweep", "pool_cold_spawn", 0.5),
    # A hot get through the sharded cache (envelope check, shard path,
    # counters) may cost at most 10% over a bare flat read+decode.
    ("cache_hot_get", "cache_flat_get", 1.1),
    # Batched dispatch must beat strict per-task dispatch on a warm
    # 64-cheap-cell sweep — the workload chunking exists for.
    ("pool_batched_sweep64", "pool_pertask_sweep64", 1.0),
)


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

def _calibrate(reps: int = 10) -> float:
    """Seconds for a fixed pure-Python arithmetic loop (machine speed)."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    assert total > 0
    return best


def _time_kernel(name: str, repeats: int) -> float:
    """Best-of-``repeats`` wall seconds for one call of kernel ``name``.

    The collector is paused across the timed region: the trial kernels
    allocate heavily, and a cycle-collection pause landing inside one
    repeat adds tens of percent of phantom "regression" that no amount
    of best-of-N filtering removes (the calibration loop allocates
    nothing, so normalization cannot cancel it either).
    """
    fn = warm_up(name)
    best = float("inf")
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


def measure_pair(fast: str, slow: str, repeats: int) -> tuple:
    """Best-of raw seconds for a ratio pair, timed interleaved.

    The two kernels alternate inside one repeat loop, so a host-load
    drift lands on both halves of the ratio instead of whichever kernel
    happened to be in flight when the wave hit.  No calibration: a
    ratio of same-loop times is already unitless.
    """
    fn_fast, fn_slow = warm_up(fast), warm_up(slow)
    best_fast = best_slow = float("inf")
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn_fast()
            best_fast = min(best_fast, time.perf_counter() - start)
            start = time.perf_counter()
            fn_slow()
            best_slow = min(best_slow, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best_fast, best_slow


def measure(repeats: int, names=None) -> dict:
    """Calibration-normalized score per kernel (lower is faster).

    Calibration runs both before and after the kernel sweep and the
    *minimum* wins: a transient host-load wave landing on a single
    up-front calibration would silently inflate (or deflate) every
    score in the run, which is exactly the failure mode the tight
    per-kernel budgets cannot tolerate.
    """
    cal_before = _calibrate()
    raw = {name: _time_kernel(name, repeats) for name in names or KERNELS}
    cal = min(cal_before, _calibrate())
    return {name: t / cal for name, t in raw.items()}


# ---------------------------------------------------------------------------
# Guard logic
# ---------------------------------------------------------------------------

def compare(current: dict, baseline: dict, threshold: float):
    """Yield ``(name, current, baseline, ratio, limit, ok)`` rows.

    ``limit`` is the effective budget: the per-kernel entry in
    :data:`THRESHOLDS` when present, else ``threshold``.
    """
    for name, score in current.items():
        limit = THRESHOLDS.get(name, threshold)
        base = baseline.get(name)
        if base is None:
            yield name, score, None, None, limit, True
            continue
        ratio = score / base if base > 0 else float("inf")
        yield name, score, base, ratio, limit, ratio <= limit


def check_ratios(current: dict):
    """Yield ``(fast, slow, ratio, limit, ok)`` for :data:`RATIO_CHECKS`.

    Pairs whose kernels were not measured this run are skipped (e.g. a
    filtered re-measure pass).
    """
    for fast, slow, limit in RATIO_CHECKS:
        if fast not in current or slow not in current:
            continue
        denom = current[slow]
        ratio = current[fast] / denom if denom > 0 else float("inf")
        yield fast, slow, ratio, limit, ratio <= limit


def main(argv=None) -> int:
    try:
        return _guard(argv)
    finally:
        teardown()


def _guard(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite BENCH_BASELINE.json from this host")
    parser.add_argument("--baseline", default=str(BASELINE_PATH))
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="fail when current/baseline exceeds this")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable results on stdout")
    parser.add_argument("--json-out", metavar="PATH",
                        help="also write the JSON report to PATH (CI "
                             "artifact); human-readable output still "
                             "prints unless --json is given")
    args = parser.parse_args(argv)

    current = measure(args.repeats)
    baseline_path = pathlib.Path(args.baseline)

    if args.update:
        payload = {"version": BASELINE_VERSION, "scores": current}
        baseline_path.write_text(json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n")
        print(f"baseline written to {baseline_path}")
        return 0

    if not baseline_path.exists():
        print(f"error: no baseline at {baseline_path}; run with --update",
              file=sys.stderr)
        return 2
    data = json.loads(baseline_path.read_text())
    if data.get("version") != BASELINE_VERSION:
        print(f"error: baseline version {data.get('version')!r} != "
              f"{BASELINE_VERSION}; regenerate with --update",
              file=sys.stderr)
        return 2

    rows = list(compare(current, data["scores"], args.threshold))
    failed = [r for r in rows if not r[5]]

    # A kernel over budget is re-measured (twice, best score wins)
    # before the run fails: a multi-hundred-millisecond host-load wave
    # can swallow an entire best-of-N repeat loop, and a spike that
    # large looks exactly like a regression.  Real regressions survive
    # the re-measurement; transients do not.
    for attempt in range(2):
        if not failed:
            break
        suspects = [r[0] for r in failed]
        print(f"re-measuring {len(suspects)} kernel(s) over budget "
              f"(transient-noise check {attempt + 1}/2): "
              f"{', '.join(suspects)}", file=sys.stderr)
        retry = measure(args.repeats, names=suspects)
        for name, score in retry.items():
            current[name] = min(current[name], score)
        rows = list(compare(current, data["scores"], args.threshold))
        failed = [r for r in rows if not r[5]]

    # Cross-kernel ratio budgets get a stronger transient-noise grace:
    # a failing pair is re-timed *interleaved* (fast/slow alternating in
    # one loop), so host-load drift cancels out of the ratio instead of
    # landing on whichever kernel the main sweep timed first.
    ratio_rows = list(check_ratios(current))
    for attempt in range(2):
        bad = [r for r in ratio_rows if not r[4]]
        if not bad:
            break
        print(f"re-timing ratio pair(s) over budget interleaved "
              f"(transient-noise check {attempt + 1}/2): "
              + ", ".join(f"{r[0]}/{r[1]}" for r in bad), file=sys.stderr)
        retimed_rows = []
        for fast, slow, ratio, limit, ok in ratio_rows:
            if not ok:
                t_fast, t_slow = measure_pair(fast, slow, args.repeats)
                retimed = t_fast / t_slow if t_slow > 0 else float("inf")
                ratio = min(ratio, retimed)
                ok = ratio <= limit
            retimed_rows.append((fast, slow, ratio, limit, ok))
        ratio_rows = retimed_rows
    failed_ratios = [r for r in ratio_rows if not r[4]]

    report = {
        "ok": not failed and not failed_ratios,
        "threshold": args.threshold,
        "baseline_version": BASELINE_VERSION,
        "results": [
            {"kernel": n, "current": c, "baseline": b, "ratio": r,
             "speedup": (b / c if b is not None and c > 0 else None),
             "limit": lim, "ok": ok}
            for n, c, b, r, lim, ok in rows
        ],
        "ratios": [
            {"kernel": fast, "reference": slow, "ratio": ratio,
             "limit": limit, "ok": ok}
            for fast, slow, ratio, limit, ok in ratio_rows
        ],
    }
    if args.json_out:
        pathlib.Path(args.json_out).write_text(
            json.dumps(report, indent=2) + "\n")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for name, cur, base, ratio, limit, ok in rows:
            if base is None:
                print(f"  {name:24s} {cur:9.3f}  (no baseline — add with "
                      f"--update)")
            else:
                # speedup is baseline/current: >1 means this tree is
                # faster than the checked-in baseline.
                print(f"  {name:24s} {cur:9.3f} vs {base:9.3f} "
                      f"(speedup {base / cur:5.2f}x, limit {limit:g}x)  "
                      f"{'ok' if ok else f'REGRESSION >{limit:g}x'}")
        for fast, slow, ratio, limit, ok in ratio_rows:
            print(f"  {fast} / {slow} = {ratio:.4f} (limit {limit:g})  "
                  f"{'ok' if ok else 'OVER BUDGET'}")
        verdict = "FAIL" if failed or failed_ratios else "PASS"
        checks = len(rows) + len(ratio_rows)
        bad = len(failed) + len(failed_ratios)
        print(f"bench guard: {verdict} "
              f"({checks - bad}/{checks} within budget)")
    return 1 if failed or failed_ratios else 0


if __name__ == "__main__":
    sys.exit(main())
