"""The paper's three injected-noise models (§3.3).

Each model maps a nominal per-thread compute amount to the per-thread
amounts actually simulated:

* :class:`SingleThreadNoise` — one thread is delayed by ``noise_percent`` of
  the compute amount; all others are unaffected (mimics a context switch on
  one core; the model used to evaluate Finepoints).
* :class:`UniformNoise` — every thread samples from
  ``U[comp, comp * (1 + noise_percent/100)]``.
* :class:`GaussianNoise` — every thread samples from
  ``N(comp, comp * noise_percent/100)``; tail samples are clipped at zero
  (the paper ignores tail cases as "sufficiently infrequent").

Models are stateless — randomness comes from the generator handed to
:meth:`NoiseModel.compute_times`, so trials can replay identical draws for
the partitioned and single-send phases (common random numbers).
"""

from __future__ import annotations

import abc
import math
from typing import Optional

import numpy as np

from ..errors import ConfigurationError

__all__ = ["NoiseModel", "NoNoise", "SingleThreadNoise", "UniformNoise",
           "GaussianNoise", "ExponentialNoise", "NOISE_MODELS",
           "noise_model_from_name"]


class NoiseModel(abc.ABC):
    """Base class: maps nominal compute to per-thread compute amounts."""

    #: Short name used in reports and benchmark tables.
    name: str = "abstract"

    @abc.abstractmethod
    def compute_times(self, rng: np.random.Generator, nthreads: int,
                      compute_seconds: float) -> np.ndarray:
        """Per-thread compute seconds for one trial.

        Parameters
        ----------
        rng:
            The trial's random stream (deterministic under the master seed).
        nthreads:
            Number of threads in the parallel region.
        compute_seconds:
            The nominal compute amount ``comp``.
        """

    def _check(self, nthreads: int, compute_seconds: float) -> None:
        if nthreads < 1:
            raise ConfigurationError(f"nthreads must be >= 1: {nthreads}")
        if compute_seconds < 0:
            raise ConfigurationError(
                f"negative compute amount: {compute_seconds}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"

    def describe(self) -> str:
        """Human-readable summary for reports."""
        return self.name


class NoNoise(NoiseModel):
    """Every thread computes exactly the nominal amount (0% noise)."""

    name = "none"

    def compute_times(self, rng: np.random.Generator, nthreads: int,
                      compute_seconds: float) -> np.ndarray:
        """Every thread gets exactly ``compute_seconds``."""
        self._check(nthreads, compute_seconds)
        return np.full(nthreads, compute_seconds, dtype=float)


class _PercentNoise(NoiseModel):
    """Base for models parameterized by a noise percentage."""

    def __init__(self, noise_percent: float):
        if not (math.isfinite(noise_percent) and noise_percent >= 0):
            raise ConfigurationError(
                f"noise_percent must be finite and >= 0: {noise_percent}")
        self.noise_percent = float(noise_percent)

    @property
    def fraction(self) -> float:
        """The noise amount as a fraction of the compute amount."""
        return self.noise_percent / 100.0

    def describe(self) -> str:
        """Name plus the configured noise percentage."""
        return f"{self.name}({self.noise_percent:g}%)"


class SingleThreadNoise(_PercentNoise):
    """Delay one randomly chosen thread by ``noise_percent`` of ``comp``.

    The paper's single-thread delay model: mimics one core taking a context
    switch while the rest of the team runs clean.
    """

    name = "single"

    def __init__(self, noise_percent: float, victim: Optional[int] = None):
        super().__init__(noise_percent)
        if victim is not None:
            # Catch a bad fixed victim at construction, not on the first
            # trial that happens to call compute_times.
            if not isinstance(victim, int) or isinstance(victim, bool):
                raise ConfigurationError(
                    f"victim thread index must be an int: {victim!r}")
            if victim < 0:
                raise ConfigurationError(
                    f"victim thread index must be >= 0: {victim}")
        #: Fix the delayed thread (None = choose uniformly per trial).
        self.victim = victim

    def compute_times(self, rng: np.random.Generator, nthreads: int,
                      compute_seconds: float) -> np.ndarray:
        """Delay one victim thread; everyone else runs clean."""
        self._check(nthreads, compute_seconds)
        times = np.full(nthreads, compute_seconds, dtype=float)
        victim = (self.victim if self.victim is not None
                  else int(rng.integers(nthreads)))
        if victim >= nthreads:
            # Team size is only known here, so the upper bound stays a
            # compute-time check even though sign/type are construction-time.
            raise ConfigurationError(
                f"victim thread {victim} outside team of {nthreads}")
        times[victim] += compute_seconds * self.fraction
        return times


class UniformNoise(_PercentNoise):
    """Every thread draws from ``U[comp, comp + comp * noise%]`` (§3.3)."""

    name = "uniform"

    def compute_times(self, rng: np.random.Generator, nthreads: int,
                      compute_seconds: float) -> np.ndarray:
        """Per-thread draws from ``U[comp, comp * (1 + noise%)]``."""
        self._check(nthreads, compute_seconds)
        hi = compute_seconds * (1.0 + self.fraction)
        return rng.uniform(compute_seconds, hi, size=nthreads)


class GaussianNoise(_PercentNoise):
    """Every thread draws from ``N(comp, comp * noise%)``, clipped at 0.

    Matches the Gaussian system-noise characterization of Mondragon et al.
    that the paper cites; the clip replaces the paper's "ignore the tails"
    assumption with a safe equivalent.
    """

    name = "gaussian"

    def compute_times(self, rng: np.random.Generator, nthreads: int,
                      compute_seconds: float) -> np.ndarray:
        """Per-thread draws from ``N(comp, comp * noise%)``, clipped."""
        self._check(nthreads, compute_seconds)
        sigma = compute_seconds * self.fraction
        draws = rng.normal(compute_seconds, sigma, size=nthreads)
        return np.clip(draws, 0.0, None)


class ExponentialNoise(_PercentNoise):
    """Every thread adds an exponential delay with mean ``comp * noise%``.

    An extension beyond the paper's three models: OS interference events
    (daemon wakeups, page-cache flushes) are classically heavy-tailed, and
    an exponential additive term is the standard first approximation
    (Ferreira et al.'s kernel-injection study the paper cites uses similar
    shapes).  Lets the suite probe tail-dominated regimes the bounded
    uniform model cannot express.
    """

    name = "exponential"

    def compute_times(self, rng: np.random.Generator, nthreads: int,
                      compute_seconds: float) -> np.ndarray:
        """Additive exponential delays with mean ``comp * noise%``."""
        self._check(nthreads, compute_seconds)
        scale = compute_seconds * self.fraction
        if scale == 0.0:
            return np.full(nthreads, compute_seconds, dtype=float)
        return compute_seconds + rng.exponential(scale, size=nthreads)


#: Model name -> class: the one noise vocabulary of the CLI, the service
#: protocol and sweep configs.
NOISE_MODELS = {cls.name: cls for cls in (
    NoNoise, SingleThreadNoise, UniformNoise, GaussianNoise,
    ExponentialNoise)}

def noise_model_from_name(name: str,
                          noise_percent: Optional[float] = None
                          ) -> NoiseModel:
    """Build a :data:`NOISE_MODELS` entry by name.

    ``noise_percent`` defaults to 0 for ``none`` and to the paper's 4%
    for the noisy models.  Passing a nonzero ``noise_percent`` together
    with ``"none"`` is a contradiction — the percent would be silently
    discarded and the sweep would report clean numbers for a config that
    asked for noise — so it raises instead.
    """
    if name not in NOISE_MODELS:
        raise ConfigurationError(
            f"unknown noise model {name!r}; choose from "
            f"{sorted(NOISE_MODELS)}")
    if name == "none":
        if noise_percent:
            raise ConfigurationError(
                f"noise model 'none' cannot carry noise_percent="
                f"{noise_percent:g}; drop the percent or pick a noisy "
                f"model")
        return NoNoise()
    return NOISE_MODELS[name](
        4.0 if noise_percent is None else noise_percent)
