"""Cross-check: the pure-Python streams and statistics equal numpy's.

:class:`repro.sim.rng.Generator` reimplements ``numpy.random.default_rng``
(SeedSequence seeding, PCG64, ziggurat normal) and
:mod:`repro.metrics.statistics` reimplements numpy's pairwise-summed
mean, std and median.  Every comparison here is bit for bit: any
difference would change event digests and archived tables.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest

from repro.metrics import statistics
from repro.noise import (GaussianNoise, NoNoise, SingleThreadNoise,
                         UniformNoise)
from repro.sim import RandomStreams, rng
from repro.sim.rng import Generator

np = pytest.importorskip("numpy")

DRAWS = 1_000_000


def _pair(seed):
    return Generator(seed), np.random.default_rng(seed)


def _bits(values):
    return [float(v).hex() for v in values]


def test_pcg64_state_matches_for_derived_seeds():
    streams = RandomStreams(2024)
    seeds = [streams._derive_seed(f"rank{i % 4}/noise-{i}")
             for i in range(1000)]
    seeds += [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 100 + 3]
    for seed in seeds:
        ours = Generator(seed)
        state = np.random.default_rng(seed).bit_generator.state["state"]
        assert (ours._state, ours._inc) == (state["state"], state["inc"]), \
            seed


def test_stream_draws_equal_default_rng_of_derived_seed():
    streams = RandomStreams(7)
    ours = streams.stream("rank0/noise")
    theirs = np.random.default_rng(streams._derive_seed("rank0/noise"))
    assert ours.uniform(0.01, 0.0104, size=64) == \
        theirs.uniform(0.01, 0.0104, size=64).tolist()


def test_random_and_uniform():
    ours, theirs = _pair(11)
    assert ours.random(DRAWS) == theirs.random(DRAWS).tolist()
    assert ours.uniform(-3.5, 12.25, size=DRAWS) == \
        theirs.uniform(-3.5, 12.25, size=DRAWS).tolist()
    assert [ours.random() for _ in range(100)] == \
        [theirs.random() for _ in range(100)]


def test_integers_interleaved_with_uniform():
    """n from 1 to 64, odd and even batch sizes, a uniform between
    batches: the buffered 32-bit half-word must carry across calls."""
    ours, theirs = _pair(23)
    pick = random.Random(5)
    drawn = 0
    while drawn < DRAWS:
        n = pick.randint(1, 64)
        size = pick.randint(1, 999)
        assert ours.integers(n, size=size) == \
            theirs.integers(n, size=size).tolist()
        assert ours.integers(n) == theirs.integers(n)
        assert ours.uniform(1.0, 2.0) == theirs.uniform(1.0, 2.0)
        drawn += size + 1
    assert ours.integers(1) == theirs.integers(1) == 0
    assert ours.integers(2 ** 32) == theirs.integers(2 ** 32)
    assert ours.random() == theirs.random()


def _count_slow_paths(monkeypatch):
    """Count calls of the ziggurat's tail (``log1p``) and wedge
    (``exp``) tests."""
    calls = {"log1p": 0, "exp": 0}

    def counted(name):
        def call(x):
            calls[name] += 1
            return getattr(math, name)(x)
        return call

    monkeypatch.setattr(rng, "math", SimpleNamespace(
        log1p=counted("log1p"), exp=counted("exp")))
    return calls


def test_normal_covers_tail_and_rejection(monkeypatch):
    calls = _count_slow_paths(monkeypatch)
    ours, theirs = _pair(31)
    draws = ours.normal(0.0, 1.0, size=DRAWS)
    assert draws == theirs.normal(0.0, 1.0, size=DRAWS).tolist()
    assert calls["exp"] > 0 and calls["log1p"] > 0
    assert max(map(abs, draws)) > rng._NOR_R  # tail draws reached
    assert _bits(ours.normal(0.01, 0.0004, size=1000)) == \
        _bits(theirs.normal(0.01, 0.0004, size=1000))
    assert ours.normal(2.0, 3.0) == theirs.normal(2.0, 3.0)


@pytest.mark.parametrize("model", [
    NoNoise(), SingleThreadNoise(4.0), UniformNoise(4.0),
    GaussianNoise(400.0)], ids=lambda m: m.name)
def test_noise_models_draw_the_same_floats_from_either_generator(model):
    ours, theirs = _pair(41)
    for _ in range(50):
        a = model.compute_times(ours, 16, 0.01)
        b = model.compute_times(theirs, 16, 0.01)
        assert all(type(t) is float for t in a + b)
        assert _bits(a) == _bits(b)


def test_statistics_helpers_equal_numpy():
    pick = random.Random(17)
    for n in range(1, 301):
        for _ in range(3):
            values = [pick.uniform(-1.0, 1.0) * 10 ** pick.randint(-6, 6)
                      for _ in range(n)]
            arr = np.array(values)
            assert statistics._mean(values).hex() == \
                float(np.mean(arr)).hex(), n
            assert statistics._std(values).hex() == \
                float(np.std(arr)).hex(), n
            if n > 1:
                assert statistics._std(values, ddof=1).hex() == \
                    float(np.std(arr, ddof=1)).hex(), n
            assert statistics._median(values).hex() == \
                float(np.median(arr)).hex(), n
