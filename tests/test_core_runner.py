"""The micro-benchmark runner: config validation, measurement integrity."""

import pytest

from repro.core import (COLD, HOT, PAPER_MESSAGE_SIZES,
                        PAPER_PARTITION_COUNTS, PtpBenchmarkConfig,
                        run_ptp_benchmark)
from repro.errors import ConfigurationError
from repro.noise import NoNoise, SingleThreadNoise, UniformNoise


class TestConfig:
    def test_defaults_are_sane(self):
        cfg = PtpBenchmarkConfig(message_bytes=4096, partitions=4)
        assert cfg.cache == HOT
        assert cfg.total_iterations == cfg.warmup + cfg.iterations

    def test_paper_grids(self):
        assert PAPER_MESSAGE_SIZES[0] == 64
        assert PAPER_MESSAGE_SIZES[-1] == 16 * 1024 * 1024
        assert PAPER_PARTITION_COUNTS == (1, 2, 4, 8, 16, 32)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PtpBenchmarkConfig(message_bytes=0, partitions=1)
        with pytest.raises(ConfigurationError):
            PtpBenchmarkConfig(message_bytes=2, partitions=4)
        with pytest.raises(ConfigurationError):
            PtpBenchmarkConfig(message_bytes=64, partitions=1,
                               cache="lukewarm")
        with pytest.raises(ConfigurationError):
            PtpBenchmarkConfig(message_bytes=64, partitions=1, iterations=0)
        with pytest.raises(ConfigurationError):
            PtpBenchmarkConfig(message_bytes=64, partitions=1, warmup=-1)
        with pytest.raises(ConfigurationError):
            PtpBenchmarkConfig(message_bytes=64, partitions=1,
                               compute_seconds=-1.0)

    def test_has_no_impl_field(self):
        """MPIPCL is the one partitioned implementation: there is no
        field to choose another."""
        with pytest.raises(TypeError):
            PtpBenchmarkConfig(message_bytes=64, partitions=1,
                               impl="mpipcl")

    def test_with_overrides(self):
        base = PtpBenchmarkConfig(message_bytes=64, partitions=1)
        alt = base.with_overrides(partitions=2, cache=COLD)
        assert alt.partitions == 2
        assert alt.cache == COLD
        assert base.partitions == 1

    def test_label_mentions_key_fields(self):
        cfg = PtpBenchmarkConfig(message_bytes=4096, partitions=4,
                                 noise=UniformNoise(4.0))
        label = cfg.label()
        assert "4096" in label and "uniform" in label


class TestRunner:
    def test_sample_count_matches_iterations(self, quick_config):
        result = run_ptp_benchmark(quick_config)
        assert len(result.samples) == quick_config.iterations

    def test_timeline_sanity(self, quick_config):
        result = run_ptp_benchmark(quick_config)
        for sample in result.samples:
            tl = sample.timeline
            assert tl.partitions == quick_config.partitions
            assert tl.t_part > 0
            assert tl.pt2pt_time > 0
            assert tl.first_pready >= 0
            assert all(a >= p for p, a in zip(tl.pready_times,
                                              tl.arrival_times))

    def test_metrics_are_finite_and_positive(self, quick_config):
        result = run_ptp_benchmark(quick_config)
        assert result.overhead.mean > 0
        assert result.perceived_bandwidth.mean > 0
        assert 0 <= result.early_bird_fraction.mean <= 1
        assert result.application_availability.mean <= 1.0

    def test_determinism_same_seed(self, quick_config):
        a = run_ptp_benchmark(quick_config)
        b = run_ptp_benchmark(quick_config)
        assert a.overhead.mean == b.overhead.mean
        assert a.perceived_bandwidth.mean == b.perceived_bandwidth.mean

    def test_different_seeds_differ_under_noise(self, quick_config):
        noisy = quick_config.with_overrides(noise=UniformNoise(4.0))
        a = run_ptp_benchmark(noisy)
        b = run_ptp_benchmark(noisy.with_overrides(seed=99))
        assert a.perceived_bandwidth.mean != b.perceived_bandwidth.mean

    def test_single_partition_runs(self):
        cfg = PtpBenchmarkConfig(message_bytes=4096, partitions=1,
                                 compute_seconds=1e-4, iterations=2)
        result = run_ptp_benchmark(cfg)
        assert result.overhead.mean > 0

    def test_cold_cache_runs(self, quick_config):
        result = run_ptp_benchmark(quick_config.with_overrides(cache=COLD))
        assert result.overhead.mean > 0

    def test_metric_summary_by_name(self, quick_config):
        result = run_ptp_benchmark(quick_config)
        assert result.metric_summary("overhead").mean == \
            result.overhead.mean
        with pytest.raises(ConfigurationError):
            result.metric_summary("latency")

    def test_common_random_numbers_align_join(self, quick_config):
        """With zero noise and zero compute variance, the partitioned
        phase's pready spread stays tiny (lock serialization only)."""
        cfg = quick_config.with_overrides(noise=NoNoise())
        result = run_ptp_benchmark(cfg)
        tl = result.samples[0].timeline
        spread = max(tl.pready_times) - min(tl.pready_times)
        assert spread < 1e-4  # well under the 1 ms compute

    def test_noise_stretches_pready_spread(self, quick_config):
        cfg = quick_config.with_overrides(
            noise=SingleThreadNoise(50.0), compute_seconds=0.01)
        result = run_ptp_benchmark(cfg)
        tl = result.samples[0].timeline
        spread = max(tl.pready_times) - min(tl.pready_times)
        assert spread > 0.004  # the 50% victim is ~5 ms late
