"""Metric definitions (§3.1 equations), timelines, and statistics."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics import (PartitionTimeline, PtpMetrics, SampleSummary,
                           application_availability, early_bird_fraction,
                           overhead, perceived_bandwidth, pruned_mean,
                           summarize, trim_outliers)


class TestEquations:
    def test_overhead_eq1(self):
        assert overhead(2.0, 1.0) == 2.0
        assert overhead(1.0, 1.0) == 1.0

    def test_overhead_validates(self):
        with pytest.raises(ConfigurationError):
            overhead(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            overhead(-1.0, 1.0)

    def test_perceived_bandwidth_eq2(self):
        assert perceived_bandwidth(1000, 1e-6) == pytest.approx(1e9)

    def test_perceived_bandwidth_validates(self):
        with pytest.raises(ConfigurationError):
            perceived_bandwidth(0, 1.0)
        with pytest.raises(ConfigurationError):
            perceived_bandwidth(100, 0.0)

    def test_availability_eq3(self):
        assert application_availability(0.0, 1.0) == 1.0
        assert application_availability(0.5, 1.0) == 0.5
        assert application_availability(2.0, 1.0) == -1.0  # can go negative

    def test_early_bird_eq4(self):
        assert early_bird_fraction(0.5, 1.0) == 0.5
        assert early_bird_fraction(0.0, 1.0) == 0.0
        assert early_bird_fraction(0.0, 0.0) == 0.0  # degenerate window

    def test_early_bird_never_exceeds_one(self):
        with pytest.raises(ConfigurationError):
            early_bird_fraction(2.0, 1.0)
        # Tiny float excess is clamped, not rejected.
        assert early_bird_fraction(1.0 + 1e-12, 1.0) == 1.0


def _timeline(**overrides):
    kwargs = dict(
        message_bytes=1000,
        pready_times=[1.0, 2.0, 3.0, 4.0],
        arrival_times=[1.5, 2.5, 3.5, 4.5],
        join_time=4.2,
        pt2pt_time=1.0,
    )
    kwargs.update(overrides)
    return PartitionTimeline(**kwargs)


class TestTimeline:
    def test_basic_derivations(self):
        tl = _timeline()
        assert tl.partitions == 4
        assert tl.first_pready == 1.0
        assert tl.last_arrival == 4.5
        assert tl.t_part == pytest.approx(3.5)
        assert tl.last_transfer_time == pytest.approx(0.5)
        assert tl.t_after_join == pytest.approx(0.3)
        assert tl.t_before_join == pytest.approx(3.2)

    def test_all_arrived_before_join(self):
        tl = _timeline(join_time=10.0)
        assert tl.t_after_join == 0.0
        assert tl.t_before_join == pytest.approx(tl.t_part)

    def test_last_transfer_is_of_latest_arrival(self):
        # Partition 0 has the longest transfer but partition 3 finishes last.
        tl = _timeline(pready_times=[0.0, 2.0, 3.0, 4.4],
                       arrival_times=[2.0, 2.5, 3.5, 4.5])
        assert tl.last_transfer_time == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _timeline(pready_times=[1.0])  # length mismatch
        with pytest.raises(ConfigurationError):
            _timeline(arrival_times=[0.5, 2.5, 3.5, 4.5])  # arrival < pready
        with pytest.raises(ConfigurationError):
            _timeline(message_bytes=0)
        with pytest.raises(ConfigurationError):
            _timeline(pt2pt_time=0.0)
        with pytest.raises(ConfigurationError):
            PartitionTimeline(message_bytes=10, pready_times=[],
                              arrival_times=[], join_time=0.0,
                              pt2pt_time=1.0)

    def test_metrics_bundle(self):
        tl = _timeline()
        m = PtpMetrics.from_timeline(tl)
        assert m.overhead == pytest.approx(3.5)
        assert m.perceived_bandwidth == pytest.approx(1000 / 0.5)
        assert m.application_availability == pytest.approx(0.7)
        assert m.early_bird_fraction == pytest.approx(3.2 / 3.5)


class TestStatistics:
    def test_trim_drops_extremes(self):
        values = list(range(100))
        trimmed = trim_outliers(values, 0.05)
        assert min(trimmed) == 5
        assert max(trimmed) == 94

    def test_small_samples_untouched(self):
        assert list(trim_outliers([1.0, 100.0], 0.05)) == [1.0, 100.0]

    def test_pruned_mean_resists_outliers(self):
        values = [1.0] * 95 + [1000.0] * 5
        assert pruned_mean(values, 0.05) == pytest.approx(1.0)

    def test_bad_trim_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            trim_outliers([1.0], 0.5)
        with pytest.raises(ConfigurationError):
            trim_outliers([1.0], -0.1)

    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([1.0, float("nan")])

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_infinities_rejected(self, bad):
        # Any non-finite sample poisons the pruned mean, not just NaN.
        with pytest.raises(ConfigurationError):
            summarize([1.0, bad])
        with pytest.raises(ConfigurationError):
            pruned_mean([1.0, bad, 2.0])

    def test_summary_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert isinstance(s, SampleSummary)
        assert s.count == 4
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.median == 2.5
        assert s.mean == pytest.approx(2.5)
        assert s.std > 0
        assert s.relative_std == pytest.approx(s.std / 2.5)

    def test_relative_std_zero_mean(self):
        assert summarize([0.0, 0.0]).relative_std == 0.0

    def test_relative_std_zero_mean_with_spread(self):
        # Mean 0 with nonzero spread: infinite relative dispersion, not
        # a ZeroDivisionError and not a silent 0.
        assert summarize([-1.0, 1.0]).relative_std == float("inf")


class TestExports:
    def test_the_trial_planner_is_gone(self):
        import repro.metrics as metrics
        for name in ("AdaptiveTrialPlanner", "DEFAULT_PLANNER_METRICS"):
            assert not hasattr(metrics, name)
            assert name not in metrics.__all__
