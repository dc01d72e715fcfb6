"""Noise-model tests (§3.3): distributions, determinism, edge cases."""

import pytest

from repro.errors import ConfigurationError
from repro.noise import (ExponentialNoise, GaussianNoise, NoNoise,
                         SingleThreadNoise, UniformNoise,
                         noise_model_from_name)
from repro.sim.rng import Generator


def _rng(seed=0):
    # Draws exactly what numpy.random.default_rng(seed) draws.
    return Generator(seed)


class TestNoNoise:
    def test_all_threads_equal(self):
        times = NoNoise().compute_times(_rng(), 8, 0.01)
        assert times == [0.01] * 8

    def test_zero_compute(self):
        assert NoNoise().compute_times(_rng(), 4, 0.0) == [0.0] * 4

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigurationError):
            NoNoise().compute_times(_rng(), 0, 0.01)
        with pytest.raises(ConfigurationError):
            NoNoise().compute_times(_rng(), 4, -1.0)


class TestSingleThreadNoise:
    def test_exactly_one_victim(self):
        times = SingleThreadNoise(4.0).compute_times(_rng(), 16, 0.01)
        delayed = sum(t > 0.01 for t in times)
        assert delayed == 1
        assert max(times) == pytest.approx(0.01 * 1.04, rel=1e-5, abs=1e-8)

    def test_fixed_victim(self):
        times = SingleThreadNoise(10.0, victim=3).compute_times(
            _rng(), 8, 0.01)
        assert times[3] == pytest.approx(0.011)
        assert sum(t > 0.01 for t in times) == 1

    def test_victim_varies_with_rng(self):
        noise = SingleThreadNoise(4.0)
        rng = _rng(42)
        victims = set()
        for _ in range(50):
            times = noise.compute_times(rng, 16, 0.01)
            victims.add(times.index(max(times)))
        assert len(victims) > 3  # picks different threads

    def test_out_of_range_victim_rejected(self):
        with pytest.raises(ConfigurationError):
            SingleThreadNoise(4.0, victim=9).compute_times(_rng(), 4, 0.01)

    def test_bad_victim_rejected_at_construction(self):
        # A victim that can never be valid fails immediately, not on the
        # first compute_times call deep inside a sweep.
        with pytest.raises(ConfigurationError):
            SingleThreadNoise(4.0, victim=-1)
        with pytest.raises(ConfigurationError):
            SingleThreadNoise(4.0, victim=True)  # bool is not a thread id

    def test_negative_percent_rejected(self):
        with pytest.raises(ConfigurationError):
            SingleThreadNoise(-1.0)


class TestUniformNoise:
    def test_bounds(self):
        times = UniformNoise(4.0).compute_times(_rng(), 1000, 0.01)
        assert min(times) >= 0.01
        assert max(times) <= 0.01 * 1.04

    def test_mean_near_center(self):
        np = pytest.importorskip("numpy")
        times = UniformNoise(10.0).compute_times(_rng(), 20000, 0.01)
        assert np.mean(times) == pytest.approx(0.01 * 1.05, rel=0.01)

    def test_zero_percent_is_noise_free(self):
        times = UniformNoise(0.0).compute_times(_rng(), 8, 0.01)
        assert times == [0.01] * 8


class TestGaussianNoise:
    def test_mean_and_std(self):
        np = pytest.importorskip("numpy")
        times = GaussianNoise(4.0).compute_times(_rng(), 50000, 0.01)
        assert np.mean(times) == pytest.approx(0.01, rel=0.01)
        assert np.std(times) == pytest.approx(0.01 * 0.04, rel=0.05)

    def test_clipped_at_zero(self):
        # Absurd sigma to force tail draws below zero.
        times = GaussianNoise(500.0).compute_times(_rng(), 10000, 0.01)
        assert min(times) >= 0.0


class TestExponentialNoise:
    def test_delays_are_additive_and_nonnegative(self):
        times = ExponentialNoise(4.0).compute_times(_rng(), 1000, 0.01)
        assert min(times) >= 0.01

    def test_mean_delay_matches_scale(self):
        np = pytest.importorskip("numpy")
        times = ExponentialNoise(10.0).compute_times(_rng(), 50000, 0.01)
        assert np.mean([t - 0.01 for t in times]) == pytest.approx(
            0.001, rel=0.02)

    def test_heavy_tail_exceeds_uniform_bound(self):
        """The point of the model: some draws land far past comp*(1+p)."""
        times = ExponentialNoise(4.0).compute_times(_rng(), 50000, 0.01)
        assert sum(t > 0.01 * 1.04 for t in times) > 0

    def test_zero_percent_is_noise_free(self):
        times = ExponentialNoise(0.0).compute_times(_rng(), 8, 0.01)
        assert times == [0.01] * 8

    def test_factory(self):
        assert isinstance(noise_model_from_name("exponential", 4.0),
                          ExponentialNoise)


class TestDeterminism:
    @pytest.mark.parametrize("model", [
        SingleThreadNoise(4.0), UniformNoise(4.0), GaussianNoise(4.0)])
    def test_same_seed_same_draws(self, model):
        a = model.compute_times(_rng(7), 16, 0.01)
        b = model.compute_times(_rng(7), 16, 0.01)
        assert a == b

    @pytest.mark.parametrize("model", [
        SingleThreadNoise(4.0), UniformNoise(4.0), GaussianNoise(4.0),
        ExponentialNoise(4.0)])
    def test_numpy_generator_draws_the_same_times(self, model):
        # The models take any numpy-Generator-shaped stream; numpy's own
        # gives bit-identical times.
        np = pytest.importorskip("numpy")
        assert model.compute_times(np.random.default_rng(7), 16, 0.01) == \
            model.compute_times(_rng(7), 16, 0.01)


class TestFactory:
    def test_all_names(self):
        assert isinstance(noise_model_from_name("none"), NoNoise)
        assert isinstance(noise_model_from_name("single", 4.0),
                          SingleThreadNoise)
        assert isinstance(noise_model_from_name("uniform", 4.0),
                          UniformNoise)
        assert isinstance(noise_model_from_name("gaussian", 4.0),
                          GaussianNoise)
        # Without a percent, a noisy model gets the paper's 4%.
        assert noise_model_from_name("uniform").noise_percent == 4.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            noise_model_from_name("pink")

    def test_none_with_percent_rejected(self):
        # "none" with a nonzero magnitude is a contradiction the factory
        # must not silently drop (the CLI used to do exactly that).
        with pytest.raises(ConfigurationError):
            noise_model_from_name("none", 50.0)
        assert isinstance(noise_model_from_name("none", 0.0), NoNoise)

    def test_describe(self):
        assert "uniform" in UniformNoise(4.0).describe()
        assert "4" in UniformNoise(4.0).describe()
