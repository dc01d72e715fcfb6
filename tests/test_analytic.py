"""The analytic fast path: closed-form evaluator, prune planner, and
the engine dispatch that ties them together.

The cross-validation tests are the contract behind ``ANALYTIC_RTOL``:
every analytic-eligible cell of the paper grid (plus the eager/rendezvous
boundary, cold caches, and multi-partition threads) must match the DES to
round-off.  CI runs this file as its own
step so a model/simulator divergence fails loudly, naming the cell.
"""

import math

import pytest

from repro.analytic import (ANALYTIC_RTOL, analytic_supported,
                            evaluate_analytic, evaluate_timeline)
from repro.core import (COLD, PAPER_MESSAGE_SIZES, PAPER_PARTITION_COUNTS,
                        PtpBenchmarkConfig, ResultCache, plan_cells,
                        run_cells, run_ptp_benchmark, sweep_ptp)
from repro.core.runner import EXECUTIONS
from repro.errors import ConfigurationError
from repro.machine import MachineSpec
from repro.metrics import ci_halfwidth
from repro.mpi import ThreadingMode
from repro.noise import UniformNoise


def _cfg(**overrides):
    defaults = dict(message_bytes=1 << 16, partitions=4,
                    compute_seconds=5e-4, iterations=2, warmup=1)
    defaults.update(overrides)
    return PtpBenchmarkConfig(**defaults)


def _assert_sweeps_agree(des, ana, metric):
    """Every cell's ``metric`` agrees within ``ANALYTIC_RTOL``."""
    cells = sorted((p.config.message_bytes, p.config.partitions)
                   for p in des.points)
    assert cells == sorted((p.config.message_bytes, p.config.partitions)
                           for p in ana.points)
    for m, n in cells:
        assert ana.value(metric, m, n) == pytest.approx(
            des.value(metric, m, n), rel=ANALYTIC_RTOL, abs=0), \
            f"{metric} at m={m} n={n}"


def _assert_timeline_matches(config):
    """Analytic timeline == DES timeline, field by field, to round-off."""
    des = run_ptp_benchmark(config).samples[-1].timeline
    ana = evaluate_timeline(config)

    def close(a, b):
        return math.isclose(a, b, rel_tol=ANALYTIC_RTOL, abs_tol=1e-15)

    assert close(ana.join_time, des.join_time), config
    assert close(ana.pt2pt_time, des.pt2pt_time), config
    for got, want in zip(ana.pready_times, des.pready_times):
        assert close(got, want), config
    for got, want in zip(ana.arrival_times, des.arrival_times):
        assert close(got, want), config


# ---------------------------------------------------------------------------
# Cross-validation against the DES
# ---------------------------------------------------------------------------

class TestCrossValidation:
    def test_full_paper_grid(self):
        """Every analytic-eligible cell of Figures 4-6's grid matches."""
        cells = [
            _cfg(message_bytes=m, partitions=n)
            for n in PAPER_PARTITION_COUNTS
            for m in PAPER_MESSAGE_SIZES
            if m >= n
        ]
        # Under the Niagara calibration only eager partitions (<= 16 KiB)
        # are timed copies, so the whole grid's hot working sets fit the
        # LLC and every cell is analytic-eligible.
        for config in cells:
            assert analytic_supported(config) is None, config
            _assert_timeline_matches(config)

    @pytest.mark.parametrize("message_bytes", [65536, 65537, 65539, 65540])
    def test_eager_threshold_partition_boundary(self, message_bytes):
        """Partition sizes straddling the 16 KiB eager threshold exactly.

        With 4 partitions, 65536 B splits into 4 x 16384 (every partition
        eager, inclusive boundary), 65537-65539 mix 16385-byte rendezvous
        partitions with eager ones, and 65540 is all-rendezvous.
        """
        _assert_timeline_matches(_cfg(message_bytes=message_bytes))

    @pytest.mark.parametrize("message_bytes", [16384, 16388])
    def test_eager_threshold_message_boundary(self, message_bytes):
        """The single-send phase's own eager/rendezvous switch."""
        _assert_timeline_matches(
            _cfg(message_bytes=message_bytes, partitions=1))

    def test_cold_cache(self):
        _assert_timeline_matches(_cfg(cache=COLD, warmup=0))

    def test_partitions_per_thread(self):
        _assert_timeline_matches(
            _cfg(partitions=8, partitions_per_thread=4))

    def test_oversubscribed_threads(self):
        spec_cores = _cfg().spec.cores_per_node
        _assert_timeline_matches(
            _cfg(message_bytes=1 << 17, partitions=2 * spec_cores))

    def test_gate_sweeps_on_metrics(self):
        """The CI gate: analytic sweep vs DES sweep, cell by cell."""
        base = _cfg()
        sizes = [1024, 65536, 1 << 20]
        counts = [1, 4]
        des = sweep_ptp(base, sizes, counts, analytic="off")
        ana = sweep_ptp(base, sizes, counts, analytic="only")
        for metric in ("overhead", "perceived_bandwidth",
                       "application_availability"):
            _assert_sweeps_agree(des, ana, metric)
        # The early-bird fraction is a ratio of counts; the two engines
        # must agree on the counts themselves.
        for point in des.points:
            twin = ana.point(point.config.message_bytes,
                             point.config.partitions)
            a = point.result.samples[-1].metrics.early_bird_fraction
            b = twin.result.samples[-1].metrics.early_bird_fraction
            assert a == pytest.approx(b, abs=1e-9)


# ---------------------------------------------------------------------------
# Eligibility
# ---------------------------------------------------------------------------

class TestEligibility:
    def test_clean_cell_is_eligible(self):
        assert analytic_supported(_cfg()) is None

    def test_noise_disqualifies(self):
        reason = analytic_supported(_cfg(noise=UniformNoise(4.0)))
        assert reason is not None and "noise" in reason

    def test_zero_percent_noise_is_deterministic(self):
        assert analytic_supported(_cfg(noise=UniformNoise(0.0))) is None

    def test_non_multiple_threading_disqualifies(self):
        reason = analytic_supported(
            _cfg(partitions=1, mode=ThreadingMode.FUNNELED))
        assert reason is not None and "MULTIPLE" in reason

    def test_hot_cache_needs_warmup(self):
        reason = analytic_supported(_cfg(warmup=0))
        assert reason is not None and "warmup" in reason

    def test_cold_cache_needs_no_warmup(self):
        assert analytic_supported(_cfg(cache=COLD, warmup=0)) is None

    def test_llc_overflow_disqualifies_hot(self):
        # Shrink the LLC until the four 16 KiB eager bounce copies of a
        # 64 KiB message no longer fit together: eviction order starts
        # deciding hit/miss, so the closed form refuses the cell.
        small = MachineSpec(llc_bytes=32 * 1024)
        reason = analytic_supported(_cfg(spec=small))
        assert reason is not None and "LLC" in reason
        # Cold caches miss every copy by construction, so the footprint
        # rule does not apply.
        assert analytic_supported(
            _cfg(spec=small, cache=COLD, warmup=0)) is None

    def test_evaluate_analytic_rejects_ineligible(self):
        with pytest.raises(ConfigurationError, match="not analytic-eligible"):
            evaluate_analytic(_cfg(noise=UniformNoise(4.0)))

    def test_analytic_result_shape(self):
        result = evaluate_analytic(_cfg(iterations=3))
        assert result.source == "analytic"
        assert result.trials == 0
        assert result.event_digest is None
        assert len(result.samples) == 3
        assert [s.iteration for s in result.samples] == [0, 1, 2]
        # One closed-form timeline, packed once per iteration.
        assert result.samples[0].timeline == result.samples[1].timeline
        assert result.samples[0].metrics == result.samples[1].metrics


# ---------------------------------------------------------------------------
# Engine dispatch
# ---------------------------------------------------------------------------

class TestDispatch:
    SIZES = [1024, 65536]
    COUNTS = [1, 4]

    def test_auto_answers_without_a_simulator(self):
        cells = plan_cells(_cfg(), self.SIZES, self.COUNTS)
        EXECUTIONS.reset()
        results, stats = run_cells(cells, jobs=1, analytic="auto")
        assert EXECUTIONS.value == 0
        assert stats.analytic == 4
        assert stats.executed == 0
        assert all(r.source == "analytic" for r in results)
        assert "4 analytic" in stats.describe()

    def test_auto_falls_back_to_des_for_noisy_cells(self):
        base = _cfg(noise=UniformNoise(4.0))
        cells = plan_cells(base, self.SIZES, self.COUNTS)
        EXECUTIONS.reset()
        results, stats = run_cells(cells, jobs=1, analytic="auto")
        assert EXECUTIONS.value == 4
        assert stats.analytic == 0
        assert all(r.source == "des" for r in results)

    def test_only_raises_on_ineligible(self):
        cells = plan_cells(_cfg(noise=UniformNoise(4.0)),
                           self.SIZES, self.COUNTS)
        with pytest.raises(ConfigurationError, match="noise"):
            run_cells(cells, jobs=1, analytic="only")

    def test_invalid_mode_rejected(self):
        cells = plan_cells(_cfg(), self.SIZES, self.COUNTS)
        with pytest.raises(ConfigurationError):
            run_cells(cells, jobs=1, analytic="everything")

    def test_analytic_results_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cells = plan_cells(_cfg(), self.SIZES, self.COUNTS)
        _, stats = run_cells(cells, jobs=1, cache=cache, analytic="auto")
        assert stats.analytic == 4
        # Closed-form answers cost microseconds; caching them would just
        # spend disk and risk staleness if the model is retuned.
        assert len(cache) == 0

    def test_analytic_matches_des_sweep(self):
        """``analytic="auto"`` changes the engine, never the answers."""
        base = _cfg()
        des = sweep_ptp(base, self.SIZES, self.COUNTS, analytic="off")
        ana = sweep_ptp(base, self.SIZES, self.COUNTS, analytic="auto")
        _assert_sweeps_agree(des, ana, "overhead")


# ---------------------------------------------------------------------------
# ci_halfwidth
# ---------------------------------------------------------------------------

class TestCiHalfwidth:
    def test_fewer_than_two_samples_is_unbounded(self):
        assert ci_halfwidth([]) == float("inf")
        assert ci_halfwidth([1.0]) == float("inf")

    def test_constant_samples_have_zero_width(self):
        assert ci_halfwidth([2.0, 2.0, 2.0, 2.0]) == 0.0

    def test_known_value(self):
        # std([1, 3], ddof=1) = sqrt(2); hw = z * sqrt(2) / sqrt(2) = z.
        assert ci_halfwidth([1.0, 3.0], confidence_z=1.96,
                            trim_fraction=0.0) == pytest.approx(1.96)

    def test_width_shrinks_with_samples(self):
        narrow = ci_halfwidth([1.0, 1.1] * 20)
        wide = ci_halfwidth([1.0, 1.1, 1.05, 0.95])
        assert narrow < wide

    def test_invalid_z_rejected(self):
        with pytest.raises(ConfigurationError):
            ci_halfwidth([1.0, 2.0], confidence_z=0.0)
