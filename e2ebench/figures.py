"""The ``figures-cold`` workload: regenerate every figure from nothing.

One pass regenerates Figures 4-8 on the paper's full grid with an empty
:class:`~repro.core.parallel.ResultCache`, every cell simulated on a warm
2-worker :class:`~repro.core.pool.WorkerPool`; then the Figure 9 and 11
throughput series and the Figure 13 SNAP projection, which have no cache;
then Figure 4 again through the closed-form fast path (``analytic="only"``,
as ``repro fig4 --full --analytic only`` does).

The figures keep the paper's seeds, so each operation's output folds into
one digest pinned in ``pins.json`` and ``--seed`` changes nothing here: a
pass always does the same work in the same order.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterator, Tuple

import layers
from common import (SETUP_REPEATS, RunRecord, dir_bytes, fold, fresh_dir,
                    import_seconds)

MODULES = ("repro.core.suite", "repro.core.parallel", "repro.core.pool",
           "repro.analytic", "repro.patterns", "repro.proxy")

#: Tiny grids for the benchmark's own tests: two sizes by two counts.
_TINY_SIZES = (4096, 65536)
_TINY_COUNTS = (2, 8)


def _grid(name: str, size: str) -> Dict:
    if size == "full":
        return {"quick": False}
    grid = {"quick": True, "sizes": _TINY_SIZES}
    if name != "fig7":  # Figure 7 is one partition count by definition
        grid["counts"] = _TINY_COUNTS
    return grid


def _cells(out, prefix: Tuple = ()) -> Iterator[Tuple[str, object]]:
    """``(panel, SweepPoint)`` for every cell of a figure's nested result."""
    for key, value in out.items():
        path = prefix + (key,)
        if isinstance(value, dict):
            yield from _cells(value, path)
        else:
            panel = "/".join(str(part) for part in path)
            for point in value.points:
                yield panel, point


def _sweeps(out) -> Iterator[object]:
    for value in out.values():
        if isinstance(value, dict):
            yield from _sweeps(value)
        else:
            yield value


def figure_digest(out) -> str:
    """Fold a figure: each cell's event digest, or for a cell the analytic
    path answered (it has none), its four metrics as ``float.hex``."""
    from repro.core.sweep import METRIC_NAMES
    lines = []
    for panel, point in _cells(out):
        result = point.result
        value = result.event_digest
        if result.source == "analytic":
            value = "|".join(getattr(result, metric).mean.hex()
                             for metric in METRIC_NAMES)
        config = point.config
        lines.append(f"{panel}|{config.message_bytes}|{config.partitions}|"
                     f"{value}")
    return fold(lines)


def pattern_digest(out) -> str:
    """``float.hex`` digest of a throughput series or a projection."""
    if isinstance(out, dict):
        return fold(f"{mode}|{m}|{value.hex()}"
                    for mode in sorted(out) for m, value in out[mode])
    return fold(f"{row.nodes}|{row.mpi_percent.hex()}|"
                f"{row.projected_speedup.hex()}|{row.elapsed.hex()}"
                for row in out.rows)


def _provenance(out, analytic: bool) -> str:
    """Empty when every sweep was produced the way the operation requires."""
    for sweep in _sweeps(out):
        s = sweep.stats
        if analytic and s.analytic != s.total_cells:
            return f"analytic pass simulated: {s.describe()}"
        if not analytic and (s.analytic or s.executed + s.cache_hits
                             + s.singleflight_hits != s.total_cells):
            return f"provenance does not add up: {s.describe()}"
    return ""


def _operations(size: str, engine: Callable[[], Dict]):
    """``(name, call, digest, is-analytic)`` for each operation of a pass."""
    from repro.core.suite import (fig4_overhead, fig5_perceived_bandwidth,
                                  fig6_availability, fig7_noise_models,
                                  fig8_early_bird)
    from repro.patterns import (CommMode, Halo3DGrid, PatternConfig,
                                Sweep3DGrid, throughput_series)
    from repro.proxy import SnapConfig, snap_projection
    ops = []
    for name, figure in (("fig4", fig4_overhead),
                         ("fig5", fig5_perceived_bandwidth),
                         ("fig6", fig6_availability),
                         ("fig7", fig7_noise_models),
                         ("fig8", fig8_early_bird)):
        ops.append((name, lambda figure=figure, grid=_grid(name, size):
                    figure(**grid, **engine()), figure_digest, False))

    sizes = (65536, 1 << 20, 4 << 20, 16 << 20) if size == "full" \
        else (65536,)
    nodes = (2, 8, 32) if size == "full" else (2, 8)

    def series(motif: str, grid, threads: int, steps: int):
        base = PatternConfig(mode=CommMode.SINGLE, threads=threads,
                             message_bytes=sizes[0], compute_seconds=0.010,
                             steps=steps, iterations=2, warmup=1)
        return lambda: throughput_series(motif, base, sizes, grid=grid)

    ops += [
        ("fig9", series("sweep3d", Sweep3DGrid(3, 3), 16, 4),
         pattern_digest, None),
        ("fig11a", series("halo3d", Halo3DGrid(2, 2, 2), 8, 2),
         pattern_digest, None),
        ("fig11b", series("halo3d", Halo3DGrid(2, 2, 2), 64, 2),
         pattern_digest, None),
        ("fig13", lambda: snap_projection(
            node_counts=nodes, base_config=SnapConfig(nodes=nodes[0])),
         pattern_digest, None),
        ("fig4-analytic", lambda: fig4_overhead(
            **_grid("fig4", size), analytic="only"), figure_digest, True),
    ]
    return ops


class FigurePass:
    """One regeneration of every figure, checked operation by operation."""

    def __init__(self, size: str, pins: Dict, record_pins: bool,
                 pool) -> None:
        self.pins = pins.setdefault(size, {})
        self.record_pins = record_pins
        #: The last pass's figure outputs and the cache it ran against.
        self.outputs: Dict[str, object] = {}
        self.cache = None

        def engine() -> Dict:
            return {"cache": self.cache, "pool": pool, "analytic": "off"}

        self.ops = _operations(size, engine)

    def run(self, rec: RunRecord) -> float:
        """Time each operation; returns the pass's wall seconds."""
        from repro.core.parallel import ResultCache
        self.cache = ResultCache(fresh_dir("cold-cache"))
        rec.start_pass()
        wall = 0.0
        for name, call, digest_of, analytic in self.ops:
            rec.attempted += 1
            start = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failed figure is a failed op
                rec.op(time.perf_counter() - start)
                rec.fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            wall += elapsed
            rec.op(elapsed)
            problem = ""
            if analytic is not None:  # a figure, not a pattern series
                self.outputs[name] = out
                problem = _provenance(out, analytic)
            digest = digest_of(out)
            if self.record_pins:
                self.pins[name] = digest
            if not problem and self.pins.get(name) != digest:
                problem = (f"digest {digest[:12]} != pinned "
                           f"{str(self.pins.get(name))[:12]}")
            if problem:
                rec.fail(f"{name}: {problem}")
        return wall


def _boot_pool():
    """A 2-worker pool with both workers booted and warm."""
    from repro.core.config import PtpBenchmarkConfig
    from repro.core.pool import WorkerPool
    pool = WorkerPool(2)
    probe = PtpBenchmarkConfig(message_bytes=64, partitions=1,
                               iterations=1, warmup=0,
                               compute_seconds=1e-4)
    list(pool.run([probe, probe]))
    return pool


def run_figures_cold(args, pins: Dict) -> RunRecord:
    rec = RunRecord()
    pool = None
    for _ in range(SETUP_REPEATS):
        if pool is not None:
            pool.shutdown()
        start = time.perf_counter()
        import_seconds(MODULES)
        pool = _boot_pool()
        rec.setup_s.append(time.perf_counter() - start)
    figures = FigurePass(args.size, pins, args.record_pins, pool)
    try:
        if args.trace:
            rec.passes.append(figures.run(rec))
            _trace(rec, figures, pool)
        else:
            # Passes until the requested time is measured (at least one).
            while sum(rec.passes) < args.seconds or not rec.passes:
                rec.passes.append(figures.run(rec))
    finally:
        pool.shutdown()
    return rec


def _trace(rec: RunRecord, figures: FigurePass, pool) -> None:
    """Profile one pooled pass, then replay its DES cells inline."""
    from repro.core.parallel import config_fingerprint
    from repro.core.runner import run_ptp_trial

    before = (pool.stats.tasks, pool.stats.warm_tasks,
              pool.stats.stolen_tasks, pool.stats.booted_workers)
    chunks = pool.obs.record("pool.dispatch_batch")
    with layers.ThreadProfiler() as pooled:
        traced_wall = figures.run(rec)
    pool.obs.detach(chunks)
    metrics = layers.empty_metrics()
    # Pool workers are other processes: for the DES split, replay each
    # distinct simulated cell inline with an event counter attached.
    configs = {}
    for out in figures.outputs.values():
        for sweep in _sweeps(out):
            metrics["cache.misses"] += sweep.stats.cache_misses
            metrics["analytic.cells"] += sweep.stats.analytic
        for _, point in _cells(out):
            metrics["metrics.samples"] += len(point.result.samples)
            if point.result.source == "des":
                configs.setdefault(config_fingerprint(point.config), point)
    counter = layers.kind_counter()
    events = 0
    start = time.perf_counter()
    with layers.ThreadProfiler() as inline:
        for point in configs.values():
            result, cluster = run_ptp_trial(point.config, sinks=[counter])
            events += cluster.sim.events_processed
            if result.event_digest != point.result.event_digest:
                rec.fail(f"inline replay of {point.config.label()} "
                         f"diverged from the pooled digest")
    inline_wall = time.perf_counter() - start
    table = pooled.stats().add(inline.stats())
    metrics.update(layers.profile_metrics(table))
    tasks, warm, stolen, booted = (
        now - then for now, then in zip(
            (pool.stats.tasks, pool.stats.warm_tasks,
             pool.stats.stolen_tasks, pool.stats.booted_workers), before))
    cache_stats = figures.cache.stats()
    metrics.update(layers.des_counts(counter.counts, events,
                                     metrics["sim.self_s"]))
    metrics.update({
        "wire.bytes": dir_bytes(figures.cache.root),
        "cache.hits": cache_stats["hits"],
        "cache.stores": cache_stats["stores"],
        "cache.memory_hits": cache_stats["memory_hits"],
        "pool.tasks": tasks,
        "pool.chunks": len(chunks),
        "pool.mean_chunk": tasks / len(chunks) if len(chunks) else 0.0,
        "pool.warm_tasks": warm,
        "pool.stolen_tasks": stolen,
        "pool.booted": booted,
        "trace.overhead_s": traced_wall - rec.passes[0],
    })
    rec.layers = metrics
    rec.layer_report = layers.report("figures-cold", table,
                                     traced_wall + inline_wall, metrics)
