"""Additional unit coverage: condition values, octant geometry, pattern
result accounting, suite drivers."""

import pytest

from repro.errors import ConfigurationError
from repro.patterns import CommMode, PatternConfig, PatternRunResult
from repro.proxy.snap import _octant_neighbors
from repro.sim import AllOf, Simulator


class TestConditionValues:
    def test_all_of_collects_values(self, sim):
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(2.0, value="b")

        def waiter():
            result = yield AllOf(sim, [a, b])
            return result

        p = sim.process(waiter())
        sim.run()
        assert p.value[a] == "a"
        assert p.value[b] == "b"

    def test_nested_conditions(self, sim):
        inner = AllOf(sim, [sim.timeout(1.0), sim.timeout(2.0)])
        outer = AllOf(sim, [inner, sim.timeout(1.5)])

        def waiter():
            yield outer
            return sim.now

        p = sim.process(waiter())
        sim.run()
        assert p.value == 2.0

    def test_cross_simulator_condition_rejected(self, sim):
        from repro.errors import SimulationError
        other = Simulator()
        with pytest.raises(SimulationError, match="multiple simulators"):
            AllOf(sim, [sim.timeout(1.0), other.timeout(1.0)])


class TestOctantGeometry:
    def test_octant_zero_sweeps_from_origin(self):
        # 3x3 grid, rank 4 is the center; octant 0 sweeps +x/+y.
        nbrs = _octant_neighbors(3, 3, 4, octant=0)
        assert nbrs == {"up_x": 3, "dn_x": 5, "up_y": 1, "dn_y": 7}

    def test_octant_one_reverses_x(self):
        nbrs = _octant_neighbors(3, 3, 4, octant=1)
        assert nbrs["up_x"] == 5 and nbrs["dn_x"] == 3
        assert nbrs["up_y"] == 1 and nbrs["dn_y"] == 7

    def test_octant_two_reverses_y(self):
        nbrs = _octant_neighbors(3, 3, 4, octant=2)
        assert nbrs["up_y"] == 7 and nbrs["dn_y"] == 1

    def test_corner_has_no_upstream_in_its_octant(self):
        nbrs = _octant_neighbors(3, 3, 0, octant=0)
        assert nbrs["up_x"] is None and nbrs["up_y"] is None
        nbrs = _octant_neighbors(3, 3, 8, octant=3)  # -x, -y sweep
        assert nbrs["up_x"] is None and nbrs["up_y"] is None

    def test_every_rank_has_a_source_corner_per_octant(self):
        # In each octant exactly one rank has no upstream at all.
        for octant in range(4):
            sources = [
                r for r in range(9)
                if _octant_neighbors(3, 3, r, octant)["up_x"] is None
                and _octant_neighbors(3, 3, r, octant)["up_y"] is None
            ]
            assert len(sources) == 1


class TestPatternRunResult:
    def _result(self, elapsed, cp=1.0):
        cfg = PatternConfig(mode=CommMode.SINGLE, threads=1,
                            message_bytes=1000)
        return PatternRunResult(config=cfg, nranks=4,
                                bytes_per_iteration=1_000_000,
                                compute_critical_path=cp,
                                elapsed=elapsed)

    def test_comm_time_subtracts_critical_path(self):
        r = self._result([1.5, 1.25], cp=1.0)
        assert r.comm_times() == pytest.approx([0.5, 0.25])
        assert r.mean_throughput == pytest.approx(
            (1_000_000 / 0.5 + 1_000_000 / 0.25) / 2)

    def test_comm_time_floors_at_epsilon(self):
        r = self._result([0.5], cp=1.0)  # elapsed below the cp estimate
        assert r.comm_times() == [pytest.approx(1e-9)]

    def test_wall_throughput_uses_elapsed(self):
        r = self._result([2.0], cp=1.0)
        assert r.wall_throughput.mean == pytest.approx(500_000)

    def test_empty_elapsed_rejected(self):
        r = self._result([])
        with pytest.raises(ConfigurationError):
            r.comm_times()
        with pytest.raises(ConfigurationError):
            r.wall_throughput


class TestSuiteDrivers:
    def test_fig4_driver_structure(self):
        from repro.core import fig4_overhead
        panels = fig4_overhead(quick=True, sizes=[1024], counts=[1, 2])
        assert set(panels) == {"hot", "cold"}
        assert panels["hot"].partition_counts == [1, 2]

    def test_fig6_driver_drops_single_partition(self):
        from repro.core import fig6_availability
        panels = fig6_availability(quick=True, sizes=[1024],
                                   counts=[1, 2, 4])
        assert panels[0.010].partition_counts == [2, 4]

    def test_fig8_driver_panels(self):
        from repro.core import fig8_early_bird
        panels = fig8_early_bird(quick=True, sizes=[1024], counts=[2])
        assert set(panels) == {0.010, 0.100}
