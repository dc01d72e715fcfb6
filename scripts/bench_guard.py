#!/usr/bin/env python
"""The benchmark kernel registry and the regression gate over it.

:data:`KERNELS` is the one definition of every benchmark kernel that
guards the simulator and the layers around it: its body, and the value
it must return.  This script times the working tree against a
baseline commit (``--against REV``, default ``HEAD``).  Each tree runs
its own registry in its own runner process (``scripts/bench_runner.py``),
and the :data:`SOLO` kernels in a second one; each runner checks every
kernel's value on its untimed warm-up call.  A fixed-seed shuffle
interleaves every kernel of both trees in each of :data:`ROUNDS` rounds,
so host-speed drift lands on both sides of a ratio.  A kernel fails when
the whole confidence interval of its per-round candidate/baseline time
ratio lies above its budget (:data:`DEFAULT_LIMIT`, or its
:data:`THRESHOLDS` entry), and a :data:`RATIO_CHECKS` pair fails under
the same rule on the per-round ratio of its two kernels in the working
tree.

Kernels build their fixtures (kept pools, a cache directory, a live
daemon) on first use; :func:`teardown` stops and removes all of them.

Usage::

    python scripts/bench_guard.py                  # working tree vs HEAD
    python scripts/bench_guard.py --against main --json
    python scripts/bench_guard.py --against HEAD~1 --json-out bench-report.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, NamedTuple, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import (PtpBenchmarkConfig, PtpResult, SweepPoint,  # noqa: E402
                        SweepResult, run_ptp_benchmark)
from repro.metrics.statistics import ci_halfwidth, pruned_mean  # noqa: E402
from repro.obs import CounterSink, EventBus  # noqa: E402
from repro.obs.kinds import PART_PREADY  # noqa: E402
from repro.sim import Simulator, Store  # noqa: E402


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


def _kept_pool():
    from repro.core import WorkerPool
    pool = WorkerPool(2)
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
    return run_ptp_benchmark(cfg).n_samples


#: The cell behind ``paper_cell_trial``/``analytic_eval``: a real
#: paper-grid point (1 MiB × 32 partitions, 10 ms compute, warmup + 10
#: iterations) — big enough that the DES run amortizes timer noise, and
#: analytic-eligible so both engines answer the identical question.
_PAPER_CELL = dict(message_bytes=1 << 20, partitions=32,
                   compute_seconds=0.010, iterations=10, warmup=1)


@kernel(10)
def paper_cell_trial():
    """One full DES trial of the reference paper-grid cell."""
    return run_ptp_benchmark(PtpBenchmarkConfig(**_PAPER_CELL)).n_samples


@kernel(2)
def motif_run():
    """One Halo3D PARTITIONED run at Fig 11b's shape: 64 threads per
    rank on a 2x2x2 grid, 1 MiB, 10 ms compute, 2 steps, 2 measured
    iterations after 1 warmup.  The motif path (many ranks, many
    threads) is about 45% of a ``figures-cold`` pass."""
    from repro.patterns import CommMode, Halo3DGrid, PatternConfig, run_motif
    config = PatternConfig(mode=CommMode.PARTITIONED, threads=64,
                           message_bytes=1 << 20, compute_seconds=0.010,
                           steps=2, iterations=2, warmup=1)
    return len(run_motif("halo3d", config, grid=Halo3DGrid(2, 2, 2)).elapsed)


@kernel(80.68776560128195)
def noise_draws():
    """100 rounds of the paper's three noise models at 10 ms, all drawn
    from ``RandomStreams(7).stream("k")``: ``UniformNoise(4)`` over 32
    threads, ``GaussianNoise(4)`` over 16, ``SingleThreadNoise(4)`` over
    32.  Holds the pure-Python PCG64 and ziggurat draws
    (:class:`repro.sim.rng.Generator`) to their cost; the value is the
    exact sum of every compute time drawn."""
    import math

    from repro.noise import GaussianNoise, SingleThreadNoise, UniformNoise
    from repro.sim import RandomStreams
    rng = RandomStreams(7).stream("k")
    draws = []
    for _ in range(100):
        draws += UniformNoise(4.0).compute_times(rng, 32, 0.010)
        draws += GaussianNoise(4.0).compute_times(rng, 16, 0.010)
        draws += SingleThreadNoise(4.0).compute_times(rng, 32, 0.010)
    return math.fsum(draws)


@kernel(("analytic", 10))
def analytic_eval():
    """The closed-form answer for the same cell (no simulator): the
    cost of answering an analytic-eligible cache miss."""
    from repro.analytic import evaluate_analytic
    result = evaluate_analytic(PtpBenchmarkConfig(**_PAPER_CELL))
    return result.source, result.n_samples


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

    The result plane's only format: one packed bytes object crosses the
    boundary.  Decoding reads the frame's doubles with one buffer copy
    into the result's packed record, so it boxes no float per timestamp.
    """
    import pickle
    from repro.core.wire import decode_result, encode_result
    config, result = _ship_fixture()
    n = 0
    for _ in range(50):
        frame = pickle.loads(pickle.dumps(encode_result(result)))
        n += decode_result(config, frame).n_samples
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
        n += cache.get(config).n_samples
    return n


@kernel(100 * 8)
def cache_flat_get():
    """The reference: 100 bare flat-file reads + frame decodes."""
    from repro.core.wire import decode_result
    _, flat, config = _cache_fixture()
    n = 0
    for _ in range(100):
        n += decode_result(config, flat.read_bytes()).n_samples
    return n


@_fixture
def _batch_cells():
    """The grid behind ``pool_batched_sweep64``: 64 distinct cheap DES
    cells, where the pool's per-task dispatch overhead dominates."""
    from repro.core import plan_cells
    base = PtpBenchmarkConfig(message_bytes=64, partitions=1,
                              compute_seconds=1e-5, iterations=1, warmup=0)
    return plan_cells(base, [64 * (i + 1) for i in range(64)], [1])


_batched_pool = _fixture(_kept_pool)


@kernel(64)
def pool_batched_sweep64():
    """64 cheap cells on a warm pool, one executor future per cell.

    Keeps the pool's per-task dispatch cost visible: a change that
    slows every submit, result hand-off or decode shows up here first.
    """
    from repro.core import run_cells
    results, _ = run_cells(_batch_cells(), jobs=2, pool=_batched_pool())
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
    _CLEANUPS.append(client.close)
    return client, payload_from_config(config)


@kernel(25 * 8)
def service_hot_request():
    """25 already-cached trial requests through the live daemon.

    The sweep service's hot path end to end: HTTP round-trip on the
    client's kept-alive connection, strict request validation, quota
    admission, scheduler dispatch, and a memory-tier cache hit — the
    cost a client pays for a config the daemon has already answered.
    No simulation runs.
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
    test.  Held to 1.05x its time at the baseline commit
    (:data:`THRESHOLDS`).
    """
    bus = EventBus()
    emit = bus.emit
    for _ in range(100_000):
        emit(PART_PREADY, 1.0, 0, 0, 0)
    return bus.subscribed(PART_PREADY)


@kernel(10_000)
def obs_emission_counted():
    """Emission with one cheap aggregating subscriber (CounterSink)."""
    bus = EventBus()
    counters = bus.attach(CounterSink(), ("part.pready",))
    emit = bus.emit
    for _ in range(10_000):
        emit(PART_PREADY, 1.0, 0, 0, 0)
    return counters.total


#: The budget of every kernel without a :data:`THRESHOLDS` entry: a
#: 1.2x slowdown against the baseline commit fails.
DEFAULT_LIMIT = 1.2

#: Per-kernel budgets overriding :data:`DEFAULT_LIMIT`.  Emission with
#: no subscriber is the instrumentation layer's core promise — it rides
#: every simulator hot path — so it gets a hard 5% budget.
THRESHOLDS = {
    "obs_emission_disabled": 1.05,
    # The two kernels the fast-path work targeted: a tight budget keeps
    # the ring / bucket / free-list wins from silently eroding.
    "timeout_dispatch": 1.25,
    "store_handoff": 1.25,
}

#: Same-tree cross-kernel budgets: ``time[a] <= limit * time[b]`` in
#: the working tree, judged on the ratio of the two kernels' per-call
#: times within each round.
RATIO_CHECKS = (
    # A warm re-sweep on a kept pool must cost at most half of the same
    # sweep paying spawn + boot + shutdown every time — the boot-once
    # promise of repro.core.pool.
    ("pool_warm_sweep", "pool_cold_spawn", 0.5),
    # A hot get through the sharded cache (envelope check, shard path,
    # counters) may cost at most 10% over a bare flat read+decode.
    ("cache_hot_get", "cache_flat_get", 1.1),
)


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

#: Kernels timed in a runner of their own, where no fixture keeps a
#: thread: a pool built there forks its workers, as a ``repro figN
#: --jobs N`` process does.  Beside the other kernels' kept pools and
#: live daemon, a process runs threads, and a pool built in it starts
#: its workers from a fork server instead (``repro.core.pool``).
SOLO = ("pool_cold_spawn",)

#: Interleaved rounds; each times every kernel once in both trees.
ROUNDS = 60

#: Seed of the per-round shuffle, so a rerun times the same order.
SHUFFLE_SEED = 19

#: Target wall time of one sample: ``n`` calls of a kernel back to back.
SAMPLE_SECONDS = 0.02

#: The environment both runners start with.
_RUNNER_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
               "PYTHONHASHSEED": "0"}


class Verdict(NamedTuple):
    """Pruned mean and CI of per-round ratios, judged against ``limit``."""

    ratio: float
    low: float
    high: float
    limit: float
    ok: bool


def verdict(ratios, limit: float) -> Verdict:
    """The one rule: the pruned mean of ``ratios`` ± ``ci_halfwidth``
    fails only when the whole interval lies above ``limit``."""
    mean = pruned_mean(ratios)
    half = ci_halfwidth(ratios)
    return Verdict(mean, mean - half, mean + half, limit,
                   mean - half <= limit)


class _Runner:
    """One ``bench_runner.py`` process of a tree (running the kernels
    ``select`` picks) and its warm-up report."""

    def __init__(self, tree: pathlib.Path, *select: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(REPO_ROOT / "scripts" / "bench_runner.py"),
             str(tree), *select],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=_RUNNER_ENV, cwd=tree)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"the runner for {tree} exited during "
                               f"warm-up (exit {self.proc.returncode})")
        hello = json.loads(line)
        self.kernels: Dict[str, str] = hello["kernels"]
        self.failed: Dict[str, str] = hello["failed"]
        self.seconds: Dict[str, float] = hello["seconds"]

    def time(self, name: str, n: int) -> float:
        """Per-call seconds of ``n`` back-to-back calls of ``name``."""
        self.proc.stdin.write(json.dumps([name, n]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the runner died timing {name}")
        return json.loads(line) / n

    def close(self) -> None:
        """End the runner's input; it tears its fixtures down and exits."""
        self.proc.stdin.close()
        self.proc.wait()


class _Tree:
    """A tree's two runners: one for the :data:`SOLO` kernels, one for
    the rest, behind the interface of a single :class:`_Runner`."""

    def __init__(self, tree: pathlib.Path):
        self.runners = []
        self.kernels: Dict[str, str] = {}
        self.failed: Dict[str, str] = {}
        self.seconds: Dict[str, float] = {}
        self._owner: Dict[str, _Runner] = {}
        try:
            for select in ("--skip", "--only"):
                runner = _Runner(tree, select, ",".join(SOLO))
                self.runners.append(runner)
                self.kernels.update(runner.kernels)
                self.failed.update(runner.failed)
                self.seconds.update(runner.seconds)
                self._owner.update(dict.fromkeys(runner.kernels, runner))
        except BaseException:
            self.close()
            raise

    def time(self, name: str, n: int) -> float:
        return self._owner[name].time(name, n)

    def close(self) -> None:
        for runner in self.runners:
            runner.close()


@contextlib.contextmanager
def _tree_at(rev: str):
    """A temporary ``git worktree`` of ``rev``, removed on exit."""
    root = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-base-"))
    try:
        subprocess.run(["git", "-C", str(REPO_ROOT), "worktree", "add",
                        "--detach", "--quiet", str(root), rev], check=True)
        yield root
    finally:
        subprocess.run(["git", "-C", str(REPO_ROOT), "worktree", "remove",
                        "--force", str(root)], check=False)
        shutil.rmtree(root, ignore_errors=True)
        subprocess.run(["git", "-C", str(REPO_ROOT), "worktree", "prune"],
                       check=False)


def sample(runners, names: List[str], counts: Dict[str, int]):
    """Per-call seconds of every kernel in every runner, one sample per
    round for :data:`ROUNDS` rounds: ``times[runner][kernel][round]``.

    The host's speed drifts over seconds, so every ratio the gate
    judges is taken from samples timed back to back: a kernel in both
    runners, and the two kernels of a :data:`RATIO_CHECKS` pair, form
    one group.  A fixed-seed shuffle orders the groups in each round
    and the samples within each group.
    """
    pairs = [[a, b] for a, b, _ in RATIO_CHECKS if a in names and b in names]
    paired = {name for pair in pairs for name in pair}
    groups = [[(i, name) for name in kernels for i in range(len(runners))]
              for kernels in pairs + [[n] for n in names if n not in paired]]
    rng = random.Random(SHUFFLE_SEED)
    times = [{name: [] for name in names} for _ in runners]
    for _ in range(ROUNDS):
        rng.shuffle(groups)
        for group in groups:
            rng.shuffle(group)
            for i, name in group:
                times[i][name].append(runners[i].time(name, counts[name]))
    return times


def gate(candidate: _Runner, baseline: _Runner) -> dict:
    """Judge the candidate against the baseline; the JSON report."""
    skipped = {}
    for name in sorted(set(candidate.kernels) | set(baseline.kernels)):
        if name in candidate.failed:
            continue
        if name not in baseline.kernels:
            skipped[name] = "only in the working tree"
        elif name not in candidate.kernels:
            skipped[name] = "only in the baseline"
        elif baseline.kernels[name] != candidate.kernels[name]:
            skipped[name] = (f"expected value changed: "
                             f"{baseline.kernels[name]} -> "
                             f"{candidate.kernels[name]}")
        elif name in baseline.failed:
            skipped[name] = f"baseline warm-up failed: {baseline.failed[name]}"
    timed = [n for n in candidate.kernels
             if n not in candidate.failed and n not in skipped]
    counts = {n: max(1, round(SAMPLE_SECONDS / candidate.seconds[n]))
              for n in timed}
    times = sample([candidate, baseline], timed, counts)
    results = []
    for name in timed:
        v = verdict([c / b for c, b in zip(times[0][name], times[1][name])],
                    THRESHOLDS.get(name, DEFAULT_LIMIT))
        results.append({"kernel": name, "n": counts[name], **v._asdict()})
    ratios = []
    for fast, slow, limit in RATIO_CHECKS:
        if fast in times[0] and slow in times[0]:
            v = verdict([a / b for a, b in zip(times[0][fast],
                                               times[0][slow])], limit)
            ratios.append({"kernel": fast, "reference": slow,
                           **v._asdict()})
    return {
        "ok": not candidate.failed and all(r["ok"] for r in results + ratios),
        "rounds": ROUNDS,
        "results": results,
        "ratios": ratios,
        "failed": candidate.failed,
        "not_gated": skipped,
    }


def _print(report: dict) -> None:
    for r in report["results"]:
        print(f"  {r['kernel']:24s} x{r['n']:<4d} ratio {r['ratio']:.3f} "
              f"[{r['low']:.3f}, {r['high']:.3f}] (limit {r['limit']:g})  "
              f"{'ok' if r['ok'] else 'REGRESSION'}")
    for r in report["ratios"]:
        print(f"  {r['kernel']} / {r['reference']} = {r['ratio']:.4f} "
              f"[{r['low']:.4f}, {r['high']:.4f}] (limit {r['limit']:g})  "
              f"{'ok' if r['ok'] else 'OVER BUDGET'}")
    for name, reason in report["failed"].items():
        print(f"  {name}: value check FAILED: {reason}")
    for name, reason in report["not_gated"].items():
        print(f"  {name}: not gated ({reason})")
    checks = report["results"] + report["ratios"]
    good = sum(r["ok"] for r in checks)
    print(f"bench guard: {'PASS' if report['ok'] else 'FAIL'} "
          f"({good}/{len(checks) + len(report['failed'])} within budget, "
          f"{report['rounds']} rounds against {report['against']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default="HEAD", metavar="REV",
                        help="the baseline commit (default: HEAD)")
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON report on stdout")
    parser.add_argument("--json-out", metavar="PATH",
                        help="also write the JSON report to PATH (CI "
                             "artifact); human-readable output still "
                             "prints unless --json is given")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        base = stack.enter_context(_tree_at(args.against))
        candidate = _Tree(REPO_ROOT)
        stack.callback(candidate.close)
        baseline = _Tree(base)
        stack.callback(baseline.close)
        report = gate(candidate, baseline)
    report["against"] = args.against
    report["seconds"] = round(time.perf_counter() - start, 1)
    if args.json_out:
        pathlib.Path(args.json_out).write_text(
            json.dumps(report, indent=2) + "\n")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print(report)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
