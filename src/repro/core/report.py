"""Plain-text reporting: the tables the benchmark harness prints.

Each figure-reproduction bench prints one table per paper figure: rows are
partition counts (the figure's series), columns are message sizes (the
figure's x-axis), cells are the pruned-mean metric value.  The formatting
helpers here are shared by the benches, the examples, and the docs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .sweep import METRIC_NAMES, SweepResult

__all__ = ["format_bytes", "format_seconds", "ascii_table",
           "metric_table", "series_table", "provenance_line",
           "METRIC_FORMATS"]


def format_bytes(n: int) -> str:
    """Human-readable byte count: ``64B``, ``4KiB``, ``16MiB``."""
    if n < 0:
        raise ConfigurationError(f"negative byte count: {n}")
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            if value == int(value):
                return f"{int(value)}{unit}"
            return f"{value:.1f}{unit}"
        value /= 1024
    raise AssertionError("unreachable")


def format_seconds(s: float) -> str:
    """Human-readable duration: ``1.2us``, ``3.4ms``, ``5.6s``."""
    if s < 0:
        raise ConfigurationError(f"negative duration: {s}")
    if s < 1e-3:
        return f"{s * 1e6:.2f}us"
    if s < 1.0:
        return f"{s * 1e3:.2f}ms"
    return f"{s:.3f}s"


#: Per-metric cell formatting: (header suffix, scale, format string).
METRIC_FORMATS: Dict[str, Tuple[str, float, str]] = {
    "overhead": ("x", 1.0, "{:.2f}"),
    "perceived_bandwidth": ("GB/s", 1e-9, "{:.2f}"),
    "application_availability": ("", 1.0, "{:.3f}"),
    "early_bird_fraction": ("%", 100.0, "{:.1f}"),
}


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                title: Optional[str] = None) -> str:
    """Render a fixed-width text table with a separator under the header."""
    if not headers:
        raise ConfigurationError("table needs at least one column")
    for r in rows:
        if len(r) != len(headers):
            raise ConfigurationError(
                f"row width {len(r)} != header width {len(headers)}")
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def metric_table(sweep: SweepResult, metric: str,
                 title: Optional[str] = None) -> str:
    """One paper-figure-shaped table from a sweep.

    Rows = partition counts, columns = message sizes, cells = pruned mean
    of ``metric`` (scaled per :data:`METRIC_FORMATS`).  Unreachable cells
    (message smaller than partition count) print ``-``.
    """
    if metric not in METRIC_NAMES:
        raise ConfigurationError(
            f"unknown metric {metric!r}; choose from {METRIC_NAMES}")
    suffix, scale, fmt = METRIC_FORMATS[metric]
    sizes = sweep.message_sizes
    headers = [f"parts\\msg"] + [format_bytes(m) for m in sizes]
    rows: List[List[str]] = []
    series = sweep.series(metric)
    for n in sweep.partition_counts:
        cells = {m: v for m, v in series.get(n, [])}
        row = [str(n)]
        for m in sizes:
            if m in cells:
                row.append(fmt.format(cells[m] * scale))
            else:
                row.append("-")
        rows.append(row)
    default = f"{metric} ({suffix})" if suffix else metric
    return ascii_table(headers, rows, title=title or default)


def provenance_line(sweep: SweepResult) -> Optional[str]:
    """How the sweep's numbers were produced, when it is worth saying.

    Mixed-provenance sweeps (some cells closed-form, some simulated —
    the ``--analytic auto`` steady state) get one line of source counts
    so a reader of the tables knows which engine stands behind them.
    Returns ``None`` for all-DES sweeps, the historical default, so
    existing reports stay byte-identical.
    """
    analytic = sum(1 for p in sweep.points if p.result.source == "analytic")
    if not analytic:
        return None
    parts = [f"{analytic} cell(s) closed-form"]
    des = len(sweep.points) - analytic
    if des:
        trials = sum(p.result.trials for p in sweep.points)
        parts.append(f"{des} cell(s) simulated ({trials} trials)")
    return "sources: " + ", ".join(parts)


def series_table(series: Dict[str, List[Tuple[int, float]]],
                 value_label: str,
                 fmt: str = "{:.2f}",
                 scale: float = 1.0,
                 title: Optional[str] = None) -> str:
    """Generic named-series table (used by the pattern benches).

    ``series`` maps a series name (e.g. ``"partitioned"``) to
    ``[(message_bytes, value), ...]``.
    """
    if not series:
        raise ConfigurationError("no series to print")
    sizes = sorted({m for pts in series.values() for m, _ in pts})
    headers = [f"series\\msg ({value_label})"] + [
        format_bytes(m) for m in sizes]
    rows: List[List[str]] = []
    for name, pts in series.items():
        cells = {m: v for m, v in pts}
        row = [name]
        for m in sizes:
            row.append(fmt.format(cells[m] * scale) if m in cells else "-")
        rows.append(row)
    return ascii_table(headers, rows, title=title)
