"""Injected system-noise models (§3.3 of the paper, plus an exponential
extension)."""

from .models import (
    NOISE_MODELS,
    ExponentialNoise,
    GaussianNoise,
    NoNoise,
    NoiseModel,
    SingleThreadNoise,
    UniformNoise,
    noise_model_from_name,
)

__all__ = [
    "NOISE_MODELS",
    "ExponentialNoise",
    "GaussianNoise",
    "NoNoise",
    "NoiseModel",
    "SingleThreadNoise",
    "UniformNoise",
    "noise_model_from_name",
]
