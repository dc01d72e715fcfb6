"""Parameter sweeps over the micro-benchmark space.

A sweep runs :func:`~repro.core.runner.run_ptp_benchmark` over a grid of
message sizes × partition counts (× anything else via config overrides) and
organizes the results for the figure-shaped reports: one *series* per
partition count, message size on the x-axis — the layout of the paper's
Figures 4–8.

Execution is delegated to :mod:`repro.core.parallel`: pass ``jobs`` to fan
cells out over worker processes and/or ``cache`` to reuse previously
computed cells — both produce results bit-identical to a plain serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..metrics import SampleSummary
from .config import PtpBenchmarkConfig
from .runner import METRIC_NAMES, PtpResult

__all__ = ["SweepPoint", "SweepResult", "sweep_ptp",
           "METRIC_NAMES"]


@dataclass(frozen=True)
class SweepPoint:
    """One grid cell: its configuration and measured result."""

    config: PtpBenchmarkConfig
    result: PtpResult


@dataclass
class SweepResult:
    """All cells of one sweep, queryable as figure-shaped series.

    Cell lookups go through a ``(message_bytes, partitions)`` index that is
    maintained incrementally, so :meth:`point` is O(1) and :meth:`series`
    walks cells once in sorted order instead of re-sorting per call.
    """

    points: List[SweepPoint] = field(default_factory=list)
    #: How the cells were produced (jobs, cache hits); None for sweeps
    #: assembled by hand.  See :class:`repro.core.parallel.SweepStats`.
    stats: Optional[object] = field(default=None, compare=False)
    _index: Dict[Tuple[int, int], SweepPoint] = field(
        default_factory=dict, repr=False, compare=False)
    _sorted_keys: Optional[List[Tuple[int, int]]] = field(
        default=None, repr=False, compare=False)

    def add(self, point: SweepPoint) -> None:
        """Append one cell, keeping the lookup index current."""
        self.points.append(point)
        key = (point.config.message_bytes, point.config.partitions)
        self._index[key] = point
        self._sorted_keys = None

    def _sync_index(self) -> Dict[Tuple[int, int], SweepPoint]:
        # ``points`` is a public list, so tolerate direct appends: rebuild
        # whenever the index has fallen behind.
        if len(self._index) != len(self.points):
            self._index = {
                (p.config.message_bytes, p.config.partitions): p
                for p in self.points
            }
            self._sorted_keys = None
        return self._index

    def _iter_sorted(self) -> List[Tuple[int, int]]:
        """Cell keys sorted by (partitions, message_bytes), cached."""
        index = self._sync_index()
        if self._sorted_keys is None:
            self._sorted_keys = sorted(index, key=lambda k: (k[1], k[0]))
        return self._sorted_keys

    @property
    def message_sizes(self) -> List[int]:
        """Distinct message sizes, ascending."""
        return sorted({p.config.message_bytes for p in self.points})

    @property
    def partition_counts(self) -> List[int]:
        """Distinct partition counts, ascending."""
        return sorted({p.config.partitions for p in self.points})

    def point(self, message_bytes: int, partitions: int) -> SweepPoint:
        """The cell at (message size, partition count) — O(1)."""
        found = self._sync_index().get((message_bytes, partitions))
        if found is None:
            raise ConfigurationError(
                f"no sweep point for m={message_bytes}, n={partitions}")
        return found

    def series(self, metric: str) -> Dict[int, List[Tuple[int, float]]]:
        """Figure-shaped data: ``{partitions: [(message_bytes, mean), ...]}``.

        ``metric`` is one of :data:`METRIC_NAMES`.  Cells abandoned under
        a fault plan (no measured samples) are skipped — the tables
        print them as ``-`` and :meth:`fault_points` lists why.
        """
        if metric not in METRIC_NAMES:
            raise ConfigurationError(
                f"unknown metric {metric!r}; choose from {METRIC_NAMES}")
        index = self._sync_index()
        out: Dict[int, List[Tuple[int, float]]] = {}
        for m, n in self._iter_sorted():
            result = index[(m, n)].result
            if not result.n_samples:
                continue  # abandoned cell: nothing to summarize
            summary: SampleSummary = getattr(result, metric)
            out.setdefault(n, []).append((m, summary.mean))
        return out

    def fault_points(self) -> List[SweepPoint]:
        """Cells that ran under a fault plan, in sorted cell order."""
        index = self._sync_index()
        return [index[key] for key in self._iter_sorted()
                if index[key].result.fault_outcome is not None]

    def value(self, metric: str, message_bytes: int,
              partitions: int) -> float:
        """The pruned-mean metric value of one cell."""
        point = self.point(message_bytes, partitions)
        return getattr(point.result, metric).mean


def sweep_ptp(base: PtpBenchmarkConfig,
              message_sizes: Sequence[int],
              partition_counts: Sequence[int],
              progress: Optional[Callable[[PtpBenchmarkConfig], None]] = None,
              jobs: int = 1,
              cache=None,
              analytic: str = "off",
              planner=None,
              pool=None,
              ) -> SweepResult:
    """Run the grid ``message_sizes`` × ``partition_counts`` from ``base``.

    Cells where the message is smaller than the partition count are
    skipped (they cannot be split), matching how the paper's figures leave
    those cells empty.

    ``jobs`` fans independent cells out over that many worker processes
    (``None`` = all cores); ``cache`` (a
    :class:`~repro.core.parallel.ResultCache` or a directory path) reuses
    previously computed cells.  Neither changes any result bit: see
    :mod:`repro.core.parallel`.  Each cell's noise stream is seeded from
    the base seed and the cell coordinates, decorrelating cells.
    ``analytic``/``planner`` select the closed-form fast path and
    CI-targeted trial allocation, and ``pool`` executes on a live
    :class:`~repro.core.pool.WorkerPool` whose warm workers are reused
    across sweeps — see :func:`~repro.core.parallel.run_cells`.
    """
    from .parallel import plan_cells, run_cells
    cells = plan_cells(base, message_sizes, partition_counts)
    results, stats = run_cells(cells, jobs=jobs, cache=cache,
                               progress=progress, analytic=analytic,
                               planner=planner, pool=pool)
    sweep = SweepResult(stats=stats)
    for config, result in zip(cells, results):
        sweep.add(SweepPoint(config=config, result=result))
    return sweep
