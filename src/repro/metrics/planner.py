"""CI-width-targeted trial allocation for noisy and faulty cells.

Hunold & Carpen-Amarie ("MPI Benchmarking Revisited", PAPERS.md) showed
that a fixed repetition count spends most of its budget on cells that
converged after a handful of samples.  :class:`AdaptiveTrialPlanner`
replaces the fixed count: it runs whole benchmark trials in batches and
stops a cell as soon as the pruned-mean confidence interval of every
watched metric is narrower than a relative target — bounded below by
``min_trials`` (never trust two samples) and above by ``max_trials``
(never let one pathological cell eat the sweep).

Determinism: trial ``t`` of a cell reseeds the configuration with
``derive_cell_seed(seed, m, n, trial=t)`` (trial 0 keeps the
configuration's own seed, so a planner run is a strict superset of the
unplanned run).  The same configuration therefore always produces the
same trial count, the same samples, and the same merged digest — planner
results are cacheable like any other, keyed with the planner's
:meth:`~AdaptiveTrialPlanner.cache_salt` so changing the targets never
aliases an old entry.

Deterministic cells bypass the loop entirely — every trial would be
bit-identical, so repetitions add spread of exactly zero and the planner
runs one plain trial.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple, TYPE_CHECKING

from ..errors import ConfigurationError
from .statistics import ci_halfwidth, pruned_mean

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> metrics)
    from ..core.config import PtpBenchmarkConfig
    from ..core.runner import PtpResult

__all__ = ["AdaptiveTrialPlanner", "DEFAULT_PLANNER_METRICS"]

#: Metrics whose CI must converge (Eq. 1–3; the early-bird fraction is a
#: ratio of counts and is often exactly zero, which makes a *relative*
#: target meaningless for it).
DEFAULT_PLANNER_METRICS: Tuple[str, ...] = (
    "overhead", "perceived_bandwidth", "application_availability")


@dataclass(frozen=True)
class AdaptiveTrialPlanner:
    """Run trials per cell until the pruned-mean CI is tight enough.

    Attributes
    ----------
    ci_target:
        Relative half-width target: stop when ``halfwidth <= ci_target *
        |pruned mean|`` for every metric in ``metrics``.
    min_trials / max_trials:
        Hard bounds on the number of simulations per nondeterministic
        cell.
    batch:
        Trials added between convergence checks after ``min_trials``.
    confidence_z:
        Normal quantile of the interval (1.96 ≈ 95%).
    trim_fraction:
        Outlier pruning applied before both the mean and its CI — the
        interval describes the statistic the reports publish.
    """

    ci_target: float = 0.05
    min_trials: int = 3
    max_trials: int = 20
    batch: int = 2
    confidence_z: float = 1.96
    trim_fraction: float = 0.05
    metrics: Tuple[str, ...] = DEFAULT_PLANNER_METRICS

    def __post_init__(self) -> None:
        if self.ci_target <= 0:
            raise ConfigurationError(
                f"ci_target must be > 0: {self.ci_target}")
        if self.min_trials < 1:
            raise ConfigurationError(
                f"min_trials must be >= 1: {self.min_trials}")
        if self.max_trials < self.min_trials:
            raise ConfigurationError(
                f"max_trials ({self.max_trials}) must be >= min_trials "
                f"({self.min_trials})")
        if self.batch < 1:
            raise ConfigurationError(f"batch must be >= 1: {self.batch}")
        if not self.metrics:
            raise ConfigurationError("planner needs at least one metric")

    def cache_salt(self) -> str:
        """Distinguishes planner-merged results in the ``ResultCache``.

        Two sweeps with different convergence settings may run different
        trial counts for the same cell; salting the fingerprint keeps
        their cache entries apart (and apart from unplanned results).
        """
        return ("planner|" + "|".join(
            f"{v:g}" if isinstance(v, float) else str(v)
            for v in (self.ci_target, self.min_trials, self.max_trials,
                      self.batch, self.confidence_z, self.trim_fraction))
            + "|" + ",".join(self.metrics))

    def _converged(self, values: List[float]) -> bool:
        if len(values) < 2:
            return False
        halfwidth = ci_halfwidth(values, self.confidence_z,
                                 self.trim_fraction)
        mean = pruned_mean(values, self.trim_fraction)
        if mean == 0.0:
            return halfwidth == 0.0
        return halfwidth <= self.ci_target * abs(mean)

    def trial_configs(self, config: "PtpBenchmarkConfig", start: int,
                      count: int) -> List["PtpBenchmarkConfig"]:
        """The reseeded configs for trials ``start .. start+count-1``.

        Trial 0 is the configuration itself (a planned run is a strict
        superset of the unplanned one); later trials derive decorrelated
        seeds through :func:`~repro.core.parallel.derive_cell_seed`.
        """
        # Imported here: core.runner imports repro.metrics at module
        # scope, so a top-level import would be circular.
        from ..core.parallel import derive_cell_seed
        configs: List["PtpBenchmarkConfig"] = []
        for trial in range(start, start + count):
            if trial == 0:
                configs.append(config)
            else:
                configs.append(config.with_overrides(
                    seed=derive_cell_seed(config.seed, config.message_bytes,
                                          config.partitions, trial=trial)))
        return configs

    def plan_next(self, config: "PtpBenchmarkConfig",
                  results: List["PtpResult"]) -> int:
        """How many more trials to run, given the completed ones.

        ``results`` must hold the cell's completed trials in trial order.
        Returns 0 when the cell is done (CI converged, ``max_trials``
        reached, or a deterministic cell that already ran its single
        trial).  This is the *whole* decision procedure: the sweep
        engine (:func:`~repro.core.parallel.run_cells`) calls it with
        every cell's trial-ordered results, on a pool or inline alike,
        so trial counts and merged digests cannot depend on how the
        trials ran.
        """
        n = len(results)
        if config.is_deterministic:
            # Every repetition would be bit-identical; one trial says it
            # all.
            return 0 if n else 1
        if n < self.min_trials:
            return self.min_trials - n
        if n >= self.max_trials:
            return 0
        values = [[v for r in results for v in r.metric_values(name)]
                  for name in self.metrics]
        # A faulty cell can abandon every iteration; empty sample sets
        # carry no information, so keep sampling to the cap.
        if all(v and self._converged(v) for v in values):
            return 0
        return min(self.batch, self.max_trials - n)

    def merge_trials(self, config: "PtpBenchmarkConfig",
                     results: List["PtpResult"]) -> "PtpResult":
        """Merge a cell's completed trials (in trial order) into one result.

        Samples from successive trials are concatenated and renumbered;
        the merged event digest hashes the per-trial digests in order,
        so it still proves "same trials, same events, same order".
        """
        from ..core.runner import PtpResult

        merged = PtpResult(config=config, source="des", trials=len(results))
        for r in results:
            merged.extend(r)
        merged.trim()
        if len(results) == 1:
            merged.event_digest = results[0].event_digest
        else:
            blob = "|".join(r.event_digest or "-" for r in results)
            merged.event_digest = hashlib.sha256(
                blob.encode("ascii")).hexdigest()
        outcomes = [r.fault_outcome for r in results if r.fault_outcome]
        if outcomes:
            # Trial 0 runs the configuration's own seed; its outcome is
            # the one an unplanned run would have reported.
            merged.fault_outcome = outcomes[0]
        return merged
