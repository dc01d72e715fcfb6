"""The paper's Figures 4–13, each defined once in :data:`FIGURES`.

Each :class:`Figure` holds a blurb, a driver taking ``quick`` (a reduced
grid for CI-speed runs) and a renderer of the figure's titled tables;
``repro figN`` and ``benchmarks/bench_fig*.py`` both run these entries.

The point-to-point drivers (Figures 4–8) return sweep results keyed the
way the figure is panelled and accept config overrides for ablations.
``jobs``, ``cache``, and ``pool`` are handed straight to
:func:`~repro.core.sweep.sweep_ptp`, so any of them can fan its grid out
over worker processes — including a kept warm
:class:`~repro.core.pool.WorkerPool` shared across figures — and reuse
cached cells (see :mod:`repro.core.parallel`); results are bit-identical
either way.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from ..noise import (GaussianNoise, NoNoise, NoiseModel, SingleThreadNoise,
                     UniformNoise)
from .config import (COLD, HOT, PAPER_MESSAGE_SIZES, PAPER_PARTITION_COUNTS,
                     PtpBenchmarkConfig)
from .report import ascii_table, format_bytes, metric_table, series_table
from .sweep import SweepResult, sweep_ptp

__all__ = ["fig4_overhead", "fig5_perceived_bandwidth",
           "fig6_availability", "fig7_noise_models", "fig8_early_bird",
           "fig9_sweep3d_10ms", "fig10_sweep3d_100ms", "fig11_halo3d_10ms",
           "fig12_halo3d_100ms", "fig13_snap_projection", "Figure",
           "FIGURES", "figure_sweeps", "QUICK_MESSAGE_SIZES",
           "QUICK_PARTITION_COUNTS"]

#: Reduced grids for quick runs (still spanning the paper's axes).
QUICK_MESSAGE_SIZES: Tuple[int, ...] = (
    256, 4096, 65536, 1 << 20, 4 << 20, 16 << 20)
QUICK_PARTITION_COUNTS: Tuple[int, ...] = (1, 2, 8, 16, 32)


def _grid(quick: bool,
          sizes: Optional[Sequence[int]],
          counts: Optional[Sequence[int]]):
    if sizes is None:
        sizes = QUICK_MESSAGE_SIZES if quick else PAPER_MESSAGE_SIZES
    if counts is None:
        counts = QUICK_PARTITION_COUNTS if quick else PAPER_PARTITION_COUNTS
    return sizes, counts


def fig4_overhead(quick: bool = True,
                  sizes: Optional[Sequence[int]] = None,
                  counts: Optional[Sequence[int]] = None,
                  jobs: int = 1, cache=None,
                  analytic: str = "off", planner=None, pool=None,
                  **overrides) -> Dict[str, SweepResult]:
    """Figure 4: overhead vs message size, hot and cold cache, no noise,
    10 ms compute.  Returns ``{"hot": sweep, "cold": sweep}``."""
    sizes, counts = _grid(quick, sizes, counts)
    engine = dict(jobs=jobs, cache=cache, analytic=analytic,
                  planner=planner, pool=pool)
    out: Dict[str, SweepResult] = {}
    for cache_mode in (HOT, COLD):
        base = PtpBenchmarkConfig(
            message_bytes=sizes[0], partitions=1,
            compute_seconds=0.010, noise=NoNoise(), cache=cache_mode,
            iterations=3 if quick else 7, **overrides)
        out[cache_mode] = sweep_ptp(base, sizes, counts, **engine)
    return out


def fig5_perceived_bandwidth(quick: bool = True,
                             sizes: Optional[Sequence[int]] = None,
                             counts: Optional[Sequence[int]] = None,
                             jobs: int = 1, cache=None,
                             analytic: str = "off", planner=None, pool=None,
                             **overrides
                             ) -> Dict[Tuple[float, float], SweepResult]:
    """Figure 5: perceived bandwidth under uniform noise, hot cache.

    Returns sweeps keyed by ``(noise_percent, compute_seconds)`` for the
    paper's panels: 0%/10 ms, 4%/10 ms, 0%/100 ms, 4%/100 ms.
    """
    sizes, counts = _grid(quick, sizes, counts)
    engine = dict(jobs=jobs, cache=cache, analytic=analytic,
                  planner=planner, pool=pool)
    panels = [(0.0, 0.010), (4.0, 0.010), (0.0, 0.100), (4.0, 0.100)]
    if quick:
        panels = [(0.0, 0.010), (4.0, 0.010), (4.0, 0.100)]
    out: Dict[Tuple[float, float], SweepResult] = {}
    for pct, comp in panels:
        noise: NoiseModel = UniformNoise(pct) if pct > 0 else NoNoise()
        base = PtpBenchmarkConfig(
            message_bytes=sizes[0], partitions=1, compute_seconds=comp,
            noise=noise, cache=HOT,
            iterations=3 if quick else 7, **overrides)
        out[(pct, comp)] = sweep_ptp(base, sizes, counts, **engine)
    return out


def fig6_availability(quick: bool = True,
                      sizes: Optional[Sequence[int]] = None,
                      counts: Optional[Sequence[int]] = None,
                      noise_percent: float = 4.0,
                      jobs: int = 1, cache=None,
                      analytic: str = "off", planner=None, pool=None,
                      **overrides) -> Dict[float, SweepResult]:
    """Figure 6: application availability, single-thread delay model,
    4% noise, hot cache; panels keyed by compute seconds (10 ms, 100 ms)."""
    sizes, counts = _grid(quick, sizes, counts)
    engine = dict(jobs=jobs, cache=cache, analytic=analytic,
                  planner=planner, pool=pool)
    counts = [n for n in counts if n >= 2]  # availability needs >= 2 threads
    out: Dict[float, SweepResult] = {}
    for comp in (0.010, 0.100):
        base = PtpBenchmarkConfig(
            message_bytes=sizes[0], partitions=2, compute_seconds=comp,
            noise=SingleThreadNoise(noise_percent), cache=HOT,
            iterations=3 if quick else 9, **overrides)
        out[comp] = sweep_ptp(base, sizes, counts, **engine)
    return out


def fig7_noise_models(quick: bool = True,
                      sizes: Optional[Sequence[int]] = None,
                      partitions: int = 16,
                      noise_percent: float = 4.0,
                      jobs: int = 1, cache=None,
                      analytic: str = "off", planner=None, pool=None,
                      **overrides) -> Dict[float, Dict[str, SweepResult]]:
    """Figure 7: availability per noise model at 16 partitions, 4% noise.

    Returns ``{compute_seconds: {model_name: sweep}}`` where each sweep has
    the single partition count 16.
    """
    sizes, _ = _grid(quick, sizes, None)
    engine = dict(jobs=jobs, cache=cache, analytic=analytic,
                  planner=planner, pool=pool)
    models = {
        "single": SingleThreadNoise(noise_percent),
        "uniform": UniformNoise(noise_percent),
        "gaussian": GaussianNoise(noise_percent),
    }
    out: Dict[float, Dict[str, SweepResult]] = {}
    for comp in (0.010, 0.100):
        panel: Dict[str, SweepResult] = {}
        for name, noise in models.items():
            base = PtpBenchmarkConfig(
                message_bytes=sizes[0], partitions=partitions,
                compute_seconds=comp, noise=noise, cache=HOT,
                iterations=3 if quick else 9, **overrides)
            panel[name] = sweep_ptp(base, sizes, [partitions], **engine)
        out[comp] = panel
    return out


def fig8_early_bird(quick: bool = True,
                    sizes: Optional[Sequence[int]] = None,
                    counts: Optional[Sequence[int]] = None,
                    noise_percent: float = 4.0,
                    jobs: int = 1, cache=None,
                    analytic: str = "off", planner=None, pool=None,
                    **overrides) -> Dict[float, SweepResult]:
    """Figure 8: % early-bird communication under uniform noise; panels
    keyed by compute seconds (10 ms, 100 ms).

    The paper notes 0% noise or one partition make this metric degenerate,
    so the partition grid starts at 2 and noise defaults to 4%.
    """
    sizes, counts = _grid(quick, sizes, counts)
    engine = dict(jobs=jobs, cache=cache, analytic=analytic,
                  planner=planner, pool=pool)
    counts = [n for n in counts if n >= 2]
    out: Dict[float, SweepResult] = {}
    for comp in (0.010, 0.100):
        base = PtpBenchmarkConfig(
            message_bytes=sizes[0], partitions=2, compute_seconds=comp,
            noise=UniformNoise(noise_percent), cache=HOT,
            iterations=3 if quick else 9, **overrides)
        out[comp] = sweep_ptp(base, sizes, counts, **engine)
    return out


def _throughput(motif: str, threads: int, compute_seconds: float,
                steps: int, quick: bool):
    # Imported here so that importing the engine (and booting a pool
    # worker) does not load the pattern motifs.
    from ..patterns import (CommMode, Halo3DGrid, PatternConfig, Sweep3DGrid,
                            throughput_series)
    grid = Sweep3DGrid(3, 3) if motif == "sweep3d" else Halo3DGrid(2, 2, 2)
    sizes = ((65536, 1 << 20, 4 << 20, 16 << 20) if quick
             else tuple(64 * 4 ** k for k in range(5, 10)))
    base = PatternConfig(mode=CommMode.SINGLE, threads=threads,
                         message_bytes=sizes[0],
                         compute_seconds=compute_seconds,
                         steps=steps if quick else 2 * steps,
                         iterations=2 if quick else 5, warmup=1)
    return throughput_series(motif, base, sizes, grid=grid)


def fig9_sweep3d_10ms(quick: bool = True):
    """Figure 9: Sweep3D throughput per communication mode, 16 threads on
    a 3x3 wavefront, 10 ms compute, 4% single noise."""
    return _throughput("sweep3d", 16, 0.010, 4, quick)


def fig10_sweep3d_100ms(quick: bool = True):
    """Figure 10: Figure 9 at 100 ms compute."""
    return _throughput("sweep3d", 16, 0.100, 4, quick)


def _halo3d(compute_seconds: float, quick: bool):
    return {"a": _throughput("halo3d", 8, compute_seconds, 2, quick),
            "b": _throughput("halo3d", 64, compute_seconds, 2, quick)}


def fig11_halo3d_10ms(quick: bool = True):
    """Figure 11: Halo3D throughput on 2x2x2 ranks, 10 ms compute.  Panel
    ``"a"``: 8 threads, 4 partitions/face; ``"b"``: 64 threads
    oversubscribing the 40-core node, 16 partitions/face."""
    return _halo3d(0.010, quick)


def fig12_halo3d_100ms(quick: bool = True):
    """Figure 12: Figure 11 at 100 ms compute."""
    return _halo3d(0.100, quick)


def fig13_snap_projection(quick: bool = True):
    """Figure 13: the SNAP proxy's MPI-time share and projected speedup
    per node count."""
    from ..proxy import SnapConfig, snap_projection
    counts = ((2, 8, 32, 128, 256) if quick
              else (2, 4, 8, 16, 32, 64, 128, 256))
    return snap_projection(node_counts=counts,
                           base_config=SnapConfig(nodes=counts[0]))


def _panels(table: Callable[[Any, Any], str]) -> Callable[[Dict], str]:
    """A renderer printing ``table(key, panel)`` for each panel."""
    return lambda panels: "\n\n".join(
        table(key, panel) for key, panel in panels.items())


def _metric_panels(metric: str, title: Callable[[Any], str]):
    return _panels(lambda key, sweep: metric_table(sweep, metric,
                                                   title=title(key)))


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:g}ms"


def _model_table(comp: float, by_model: Dict[str, SweepResult]) -> str:
    sizes = next(iter(by_model.values())).message_sizes
    rows = []
    for model, sweep in by_model.items():
        series = dict(sweep.series("application_availability")[16])
        rows.append([model] + [f"{series[m]:.3f}" for m in sizes])
    return ascii_table(
        ["model"] + [format_bytes(m) for m in sizes], rows,
        title=f"Fig 7 — Availability by noise model, 16 partitions, 4% "
              f"noise, {_ms(comp)} compute")


def _throughput_table(series, title: str) -> str:
    return series_table(series, value_label="GB/s", scale=1e-9, title=title)


def _sweep3d_render(fig: int, compute: str) -> Callable[[Dict], str]:
    return lambda series: _throughput_table(
        series, f"Fig {fig} — Sweep3D comm throughput, 16 threads, "
                f"{compute} compute, 4% single noise")


_HALO_PANELS = {"a": "8 threads (4 partitions/face)",
                "b": "64 threads oversubscribed (16 partitions/face)"}


def _halo3d_render(fig: int, compute: str) -> Callable[[Dict], str]:
    return _panels(lambda panel, series: _throughput_table(
        series, f"Fig {fig}{panel} — Halo3D comm throughput, "
                f"{_HALO_PANELS[panel]}, {compute}"))


@dataclass(frozen=True)
class Figure:
    """One paper figure: what it shows, how to run it, how to print it.

    ``driver(quick=...)`` runs the experiment; ``render(output)`` returns
    the figure's titled tables (the text archived under
    ``benchmarks/output/``).
    """

    blurb: str
    driver: Callable[..., Any]
    render: Callable[[Any], str]

    @property
    def on_engine(self) -> bool:
        """Whether the driver runs on the sweep engine and so accepts
        ``jobs``, ``cache``, ``analytic``, ``planner`` and ``pool``."""
        return "jobs" in inspect.signature(self.driver).parameters


#: Every figure of the paper's evaluation, in order.
FIGURES: Dict[str, Figure] = {
    "fig4": Figure(
        "overhead vs message size, hot & cold cache", fig4_overhead,
        _metric_panels("overhead", lambda cache: (
            f"Fig 4 — Overhead (x), {cache} cache, 10ms compute, "
            f"no noise"))),
    "fig5": Figure(
        "perceived bandwidth under uniform noise", fig5_perceived_bandwidth,
        _metric_panels("perceived_bandwidth", lambda key: (
            f"Fig 5 — Perceived bandwidth (GB/s), uniform {key[0]:g}% "
            f"noise, {_ms(key[1])} compute"))),
    "fig6": Figure(
        "application availability, single-thread delay", fig6_availability,
        _metric_panels("application_availability", lambda comp: (
            f"Fig 6 — Application availability, single-thread delay 4%, "
            f"{_ms(comp)} compute"))),
    "fig7": Figure("availability per noise model", fig7_noise_models,
                   _panels(_model_table)),
    "fig8": Figure(
        "% early-bird communication", fig8_early_bird,
        _metric_panels("early_bird_fraction", lambda comp: (
            f"Fig 8 — Early-bird communication (%), uniform 4% noise, "
            f"{_ms(comp)} compute"))),
    "fig9": Figure("Sweep3D throughput, 10 ms compute",
                   fig9_sweep3d_10ms, _sweep3d_render(9, "10ms")),
    "fig10": Figure("Sweep3D throughput, 100 ms compute",
                    fig10_sweep3d_100ms, _sweep3d_render(10, "100ms")),
    "fig11": Figure("Halo3D throughput, 10 ms compute",
                    fig11_halo3d_10ms, _halo3d_render(11, "10ms")),
    "fig12": Figure("Halo3D throughput, 100 ms compute",
                    fig12_halo3d_100ms, _halo3d_render(12, "100ms")),
    "fig13": Figure("SNAP projected speedup",
                    fig13_snap_projection, lambda proj: proj.format()),
}


def figure_sweeps(output) -> Iterator[SweepResult]:
    """Every :class:`SweepResult` in a figure driver's (nested) output."""
    if isinstance(output, SweepResult):
        yield output
    elif isinstance(output, dict):
        for value in output.values():
            yield from figure_sweeps(value)
