"""Summary statistics with the paper's outlier handling.

§4.1: "The results shown are averages over several trials, and we have
pruned extreme noise samples from the dataset to avoid extreme outliers
that do not often occur in practice."  :func:`pruned_mean` implements
exactly that — a symmetric trimmed mean — and :class:`SampleSummary`
bundles the dispersion numbers the reports print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..errors import ConfigurationError

__all__ = ["pruned_mean", "trim_outliers", "SampleSummary", "summarize",
           "ci_halfwidth"]


# numpy's mean/std/median, reproduced to the last bit: the archived tables
# and service digests were computed with numpy, and Python's ``sum`` adds
# in a different order (and compensates, from 3.12 on).

def _pairwise_sum(a: Sequence[float], lo: int, n: int) -> float:
    """``sum(a[lo:lo + n])`` in numpy's ``pairwise_sum_DOUBLE`` order."""
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    if n <= 128:
        stop = lo + n - n % 8
        acc = []
        for j in range(lo, lo + 8):
            s = a[j]
            for i in range(j + 8, stop, 8):
                s += a[i]
            acc.append(s)
        res = (((acc[0] + acc[1]) + (acc[2] + acc[3]))
               + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
        for i in range(stop, lo + n):
            res += a[i]
        return res
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(a, lo, half)
            + _pairwise_sum(a, lo + half, n - half))


def _mean(a: Sequence[float]) -> float:
    """``np.mean(a)`` for a non-empty float sequence."""
    return _pairwise_sum(a, 0, len(a)) / len(a)


def _std(a: Sequence[float], ddof: int = 0) -> float:
    """``np.std(a, ddof=ddof)`` for ``len(a) > ddof``."""
    m = _mean(a)
    sq = [(x - m) * (x - m) for x in a]
    return math.sqrt(_pairwise_sum(sq, 0, len(sq)) / (len(a) - ddof))


def _median(a: Sequence[float]) -> float:
    """``np.median(a)`` for a non-empty float sequence."""
    s = sorted(a)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def trim_outliers(values: Sequence[float],
                  trim_fraction: float = 0.05) -> List[float]:
    """Drop the top and bottom ``trim_fraction`` of samples (by value).

    With fewer than ``1 / trim_fraction`` samples nothing is dropped, so
    tiny sample sets are returned unchanged rather than emptied.
    """
    if not (0.0 <= trim_fraction < 0.5):
        raise ConfigurationError(
            f"trim_fraction must be in [0, 0.5): {trim_fraction}")
    arr = sorted(float(v) for v in values)
    if not arr:
        raise ConfigurationError("cannot trim an empty sample set")
    if not all(map(math.isfinite, arr)):
        raise ConfigurationError("sample set contains non-finite values")
    k = int(len(arr) * trim_fraction)
    if k == 0:
        return arr
    return arr[k:len(arr) - k]


def pruned_mean(values: Sequence[float],
                trim_fraction: float = 0.05) -> float:
    """The paper's reporting statistic: mean after pruning extremes."""
    return _mean(trim_outliers(values, trim_fraction))


def ci_halfwidth(values: Sequence[float],
                 confidence_z: float = 1.96,
                 trim_fraction: float = 0.05) -> float:
    """Half-width of the normal-approximation CI around the pruned mean.

    ``z * s / sqrt(k)`` over the *trimmed* sample set (the same pruning
    the reported mean uses, so the interval describes the statistic we
    actually publish).  Fewer than two surviving samples carry no spread
    information: return ``inf`` so convergence loops keep sampling.
    """
    if confidence_z <= 0:
        raise ConfigurationError(
            f"confidence_z must be > 0: {confidence_z}")
    if len(values) < 2:
        return float("inf")
    arr = trim_outliers(values, trim_fraction)
    if len(arr) < 2:
        return float("inf")
    return confidence_z * _std(arr, ddof=1) / math.sqrt(len(arr))


@dataclass(frozen=True)
class SampleSummary:
    """Dispersion summary of one metric across iterations.

    Attributes mirror what a benchmark table needs: the pruned mean (the
    headline number), plus min/max/median/std of the raw samples and the
    sample count.
    """

    mean: float
    median: float
    std: float
    minimum: float
    maximum: float
    count: int

    @property
    def relative_std(self) -> float:
        """Coefficient of variation.

        A zero mean with nonzero spread is infinitely unstable relative
        to its center, not "perfectly stable" — report ``inf``, never a
        misleading ``0.0``.
        """
        if self.mean:
            return self.std / abs(self.mean)
        return float("inf") if self.std else 0.0


def summarize(values: Sequence[float],
              trim_fraction: float = 0.05) -> SampleSummary:
    """Build a :class:`SampleSummary` (pruned mean, raw dispersion)."""
    arr = [float(v) for v in values]
    if not arr:
        raise ConfigurationError("cannot summarize an empty sample set")
    if not all(map(math.isfinite, arr)):
        # NaN *and* ±inf: one infinite sample would silently poison
        # mean/std/max, so reject every non-finite value up front.
        raise ConfigurationError("sample set contains non-finite values")
    return SampleSummary(
        mean=pruned_mean(arr, trim_fraction),
        median=_median(arr),
        std=_std(arr),
        minimum=min(arr),
        maximum=max(arr),
        count=len(arr),
    )
