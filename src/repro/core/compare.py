"""Sweep comparison: detect metric drift between two runs.

The paper pitches its suite as a tool "that can be used in testing and
development of MPI implementation native solutions" — i.e. you change the
implementation, re-run the suite, and ask *what moved*.  This module does
that mechanically: cell-by-cell relative deltas between a baseline sweep
and a candidate sweep, with a tolerance band and a rendered drift table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ConfigurationError
from .report import ascii_table, format_bytes
from .sweep import METRIC_NAMES, SweepResult

__all__ = ["Drift", "compare_sweeps", "drift_table", "gate_sweeps"]


@dataclass(frozen=True)
class Drift:
    """One cell whose metric moved beyond tolerance.

    ``relative`` is ``(candidate - baseline) / |baseline|`` — positive
    means the candidate's value is higher.
    """

    metric: str
    message_bytes: int
    partitions: int
    baseline: float
    candidate: float

    @property
    def relative(self) -> float:
        """Signed relative change vs the baseline."""
        if self.baseline == 0.0:
            return float("inf") if self.candidate else 0.0
        return (self.candidate - self.baseline) / abs(self.baseline)


def _cells(sweep: SweepResult):
    return [(p.config.message_bytes, p.config.partitions)
            for p in sweep.points]


def compare_sweeps(baseline: SweepResult, candidate: SweepResult,
                   metric: str, tolerance: float = 0.10) -> List[Drift]:
    """Cells where ``metric`` moved by more than ``tolerance``.

    The tolerance is relative: ``|candidate - baseline| / |baseline|``
    (a zero baseline with any nonzero candidate always drifts).

    Both sweeps must cover the same (message size, partition count) grid;
    a mismatched grid is an error, not a silent skip — a missing cell is
    itself a regression in coverage.
    """
    if metric not in METRIC_NAMES:
        raise ConfigurationError(
            f"unknown metric {metric!r}; choose from {METRIC_NAMES}")
    if not (0.0 <= tolerance):
        raise ConfigurationError(f"tolerance must be >= 0: {tolerance}")
    base_cells = sorted(_cells(baseline))
    cand_cells = sorted(_cells(candidate))
    if base_cells != cand_cells:
        raise ConfigurationError(
            f"sweeps cover different grids: baseline has "
            f"{len(base_cells)} cells, candidate {len(cand_cells)}")
    drifts: List[Drift] = []
    for m, n in base_cells:
        b = baseline.value(metric, m, n)
        c = candidate.value(metric, m, n)
        drift = Drift(metric=metric, message_bytes=m, partitions=n,
                      baseline=b, candidate=c)
        if abs(drift.relative) > tolerance:
            drifts.append(drift)
    return drifts


def gate_sweeps(baseline: SweepResult, candidate: SweepResult,
                metric: str, tolerance: float) -> None:
    """Gate form of :func:`compare_sweeps`: raise on any drift.

    The exception message embeds the full drift table, so a failing CI
    cross-validation run (analytic vs DES) shows exactly which cells
    disagreed and by how much.
    """
    drifts = compare_sweeps(baseline, candidate, metric,
                            tolerance=tolerance)
    if drifts:
        raise ConfigurationError(
            f"{metric} drifted beyond relative tolerance {tolerance:g}:\n"
            f"{drift_table(drifts)}")


def drift_table(drifts: List[Drift]) -> str:
    """Render detected drifts (or a clean bill of health)."""
    if not drifts:
        return "no drift beyond tolerance"
    rows = []
    for d in sorted(drifts, key=lambda d: -abs(d.relative)):
        rows.append([
            d.metric,
            format_bytes(d.message_bytes),
            str(d.partitions),
            f"{d.baseline:.4g}",
            f"{d.candidate:.4g}",
            f"{d.relative * 100:+.1f}%",
        ])
    return ascii_table(
        ["metric", "message", "parts", "baseline", "candidate", "change"],
        rows, title=f"{len(drifts)} drifted cell(s)")
