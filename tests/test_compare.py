"""Sweep drift comparison."""

import pytest

from repro.core import (PtpBenchmarkConfig, compare_sweeps, drift_table,
                        sweep_ptp)
from repro.errors import ConfigurationError
from repro.mpi import DEFAULT_COSTS


@pytest.fixture(scope="module")
def baseline():
    base = PtpBenchmarkConfig(message_bytes=64, partitions=1,
                              compute_seconds=1e-4, iterations=2)
    return sweep_ptp(base, [1024, 65536], [1, 8])


class TestCompare:
    def test_identical_sweeps_show_no_drift(self, baseline):
        assert compare_sweeps(baseline, baseline, "overhead") == []
        assert drift_table([]) == "no drift beyond tolerance"

    def test_substrate_change_is_detected(self, baseline):
        slow_costs = DEFAULT_COSTS.with_overrides(pready_cost=5e-6)
        base = PtpBenchmarkConfig(message_bytes=64, partitions=1,
                                  compute_seconds=1e-4, iterations=2,
                                  costs=slow_costs)
        candidate = sweep_ptp(base, [1024, 65536], [1, 8])
        drifts = compare_sweeps(baseline, candidate, "overhead",
                                tolerance=0.10)
        assert drifts  # a 8x pready-cost hike must move small messages
        worst = max(drifts, key=lambda d: abs(d.relative))
        assert worst.candidate > worst.baseline
        text = drift_table(drifts)
        assert "drifted" in text and "+" in text

    def test_tolerance_suppresses_small_drift(self, baseline):
        slow_costs = DEFAULT_COSTS.with_overrides(pready_cost=5e-6)
        base = PtpBenchmarkConfig(message_bytes=64, partitions=1,
                                  compute_seconds=1e-4, iterations=2,
                                  costs=slow_costs)
        candidate = sweep_ptp(base, [1024, 65536], [1, 8])
        loose = compare_sweeps(baseline, candidate, "overhead",
                               tolerance=100.0)
        assert loose == []

    def test_grid_mismatch_rejected(self, baseline):
        base = PtpBenchmarkConfig(message_bytes=64, partitions=1,
                                  compute_seconds=1e-4, iterations=1)
        other = sweep_ptp(base, [1024], [1])
        with pytest.raises(ConfigurationError, match="different grids"):
            compare_sweeps(baseline, other, "overhead")

    def test_unknown_metric_rejected(self, baseline):
        with pytest.raises(ConfigurationError):
            compare_sweeps(baseline, baseline, "latency")

    def test_negative_tolerance_rejected(self, baseline):
        with pytest.raises(ConfigurationError):
            compare_sweeps(baseline, baseline, "overhead", tolerance=-1.0)
