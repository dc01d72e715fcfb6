"""Pattern motifs: geometry, execution, mode comparisons."""

import pytest

from repro.errors import ConfigurationError
from repro.patterns import (CommMode, FACES, Halo3DGrid, PatternConfig,
                            Sweep3DGrid, face_partition, opposite_face,
                            run_halo3d, run_motif, run_sweep3d,
                            thread_cube_side, throughput_series)


class TestSweepGrid:
    def test_coords_roundtrip(self):
        grid = Sweep3DGrid(3, 2)
        for rank in range(grid.nranks):
            x, y = grid.coords(rank)
            assert grid.rank_of(x, y) == rank

    def test_corner_has_no_upstream(self):
        nb = Sweep3DGrid(3, 3).neighbors(0)
        assert nb["west"] is None and nb["north"] is None
        assert nb["east"] == 1 and nb["south"] == 3

    def test_far_corner_has_no_downstream(self):
        grid = Sweep3DGrid(3, 3)
        nb = grid.neighbors(8)
        assert nb["east"] is None and nb["south"] is None
        assert nb["west"] == 7 and nb["north"] == 5

    def test_edge_count(self):
        assert Sweep3DGrid(3, 3).edge_count() == 12
        assert Sweep3DGrid(1, 1).edge_count() == 0

    def test_invalid_grid(self):
        with pytest.raises(ConfigurationError):
            Sweep3DGrid(0, 3)


class TestHaloGrid:
    def test_coords_roundtrip(self):
        grid = Halo3DGrid(2, 3, 2)
        for rank in range(grid.nranks):
            assert grid.rank_of(*grid.coords(rank)) == rank

    def test_neighbors_at_boundary(self):
        grid = Halo3DGrid(2, 2, 2)
        assert grid.neighbor(0, 0) is None   # -x at boundary
        assert grid.neighbor(0, 1) == 1      # +x
        assert grid.neighbor(0, 3) == 2      # +y
        assert grid.neighbor(0, 5) == 4      # +z

    def test_opposite_face(self):
        for f in range(6):
            assert opposite_face(opposite_face(f)) == f
            assert FACES[f][0] == FACES[opposite_face(f)][0]
            assert FACES[f][1] == -FACES[opposite_face(f)][1]

    def test_directed_edges(self):
        assert Halo3DGrid(2, 2, 2).directed_edges() == 24
        assert Halo3DGrid(1, 1, 1).directed_edges() == 0

    def test_thread_cube_side(self):
        assert thread_cube_side(8) == 2
        assert thread_cube_side(27) == 3
        assert thread_cube_side(64) == 4
        with pytest.raises(ConfigurationError):
            thread_cube_side(10)

    def test_face_partition_mapping(self):
        c = 2
        # thread (0, y, z) owns -x face partition y*c+z
        assert face_partition(0, 0, 1, 0, c) == 2
        assert face_partition(0, 1, 1, 0, c) is None  # not on -x face
        assert face_partition(1, 1, 0, 1, c) == 1     # +x face
        # every face has exactly c*c owners
        for f in range(6):
            owners = [
                (x, y, z)
                for x in range(c) for y in range(c) for z in range(c)
                if face_partition(f, x, y, z, c) is not None
            ]
            assert len(owners) == c * c
            indices = {face_partition(f, *o, c) for o in owners}
            assert indices == set(range(c * c))


QUICK = dict(compute_seconds=1e-3, steps=2, iterations=1, warmup=1)


class TestSweepExecution:
    @pytest.mark.parametrize("mode", list(CommMode))
    def test_all_modes_complete(self, mode):
        cfg = PatternConfig(mode=mode, threads=4, message_bytes=1 << 16,
                            **QUICK)
        result = run_sweep3d(cfg, Sweep3DGrid(2, 2))
        assert result.mean_throughput > 0
        assert result.nranks == 4
        assert len(result.elapsed) == 1

    def test_bytes_accounting(self):
        cfg = PatternConfig(mode=CommMode.SINGLE, threads=1,
                            message_bytes=1000, **QUICK)
        result = run_sweep3d(cfg, Sweep3DGrid(2, 2))
        # 2 steps x 1000 B x 4 edges
        assert result.bytes_per_iteration == 2 * 1000 * 4

    def test_determinism(self):
        cfg = PatternConfig(mode=CommMode.PARTITIONED, threads=4,
                            message_bytes=1 << 16, **QUICK)
        a = run_sweep3d(cfg, Sweep3DGrid(2, 2))
        b = run_sweep3d(cfg, Sweep3DGrid(2, 2))
        assert a.elapsed == b.elapsed

    def test_partitioned_epochs_progress(self):
        cfg = PatternConfig(mode=CommMode.PARTITIONED, threads=2,
                            message_bytes=1 << 10, compute_seconds=1e-4,
                            steps=5, iterations=2, warmup=0)
        result = run_sweep3d(cfg, Sweep3DGrid(2, 1))
        assert len(result.elapsed) == 2
        assert all(e > 0 for e in result.elapsed)


class TestHaloExecution:
    @pytest.mark.parametrize("mode", list(CommMode))
    def test_all_modes_complete(self, mode):
        cfg = PatternConfig(mode=mode, threads=8, message_bytes=1 << 16,
                            **QUICK)
        result = run_halo3d(cfg, Halo3DGrid(2, 2, 2))
        assert result.mean_throughput > 0

    def test_non_cube_threads_rejected_for_threaded_modes(self):
        cfg = PatternConfig(mode=CommMode.MULTI, threads=6,
                            message_bytes=1 << 16, **QUICK)
        with pytest.raises(ConfigurationError, match="cube"):
            run_halo3d(cfg, Halo3DGrid(2, 2, 2))

    def test_single_mode_ignores_thread_cube_rule(self):
        cfg = PatternConfig(mode=CommMode.SINGLE, threads=6,
                            message_bytes=1 << 16, **QUICK)
        result = run_halo3d(cfg, Halo3DGrid(2, 2, 2))
        assert result.mean_throughput > 0

    def test_bytes_accounting(self):
        cfg = PatternConfig(mode=CommMode.SINGLE, threads=1,
                            message_bytes=1000, **QUICK)
        result = run_halo3d(cfg, Halo3DGrid(2, 2, 2))
        assert result.bytes_per_iteration == 2 * 1000 * 24

    def test_oversubscribed_64_threads(self):
        cfg = PatternConfig(mode=CommMode.PARTITIONED, threads=64,
                            message_bytes=1 << 16, compute_seconds=1e-3,
                            steps=1, iterations=1, warmup=0)
        result = run_halo3d(cfg, Halo3DGrid(2, 1, 1))
        assert result.mean_throughput > 0
        # Oversubscription doubles the compute critical path.
        assert result.compute_critical_path > 1.5e-3


class TestRunnerHelpers:
    def test_run_motif_by_name(self):
        cfg = PatternConfig(mode=CommMode.SINGLE, threads=1,
                            message_bytes=1 << 12, **QUICK)
        assert run_motif("sweep3d", cfg, Sweep3DGrid(2, 1)).mean_throughput > 0
        assert run_motif("halo3d", cfg, Halo3DGrid(2, 1, 1)).mean_throughput > 0

    def test_unknown_motif_rejected(self):
        cfg = PatternConfig(mode=CommMode.SINGLE, threads=1,
                            message_bytes=1 << 12, **QUICK)
        with pytest.raises(ConfigurationError):
            run_motif("stencil9", cfg)

    def test_throughput_series_layout(self):
        base = PatternConfig(mode=CommMode.SINGLE, threads=4,
                             message_bytes=1 << 12, **QUICK)
        series = throughput_series(
            "sweep3d", base, message_sizes=[1 << 12, 1 << 14],
            modes=[CommMode.SINGLE, CommMode.PARTITIONED],
            grid=Sweep3DGrid(2, 1))
        assert set(series) == {"single", "partitioned"}
        assert [m for m, _ in series["single"]] == [1 << 12, 1 << 14]
        assert all(v > 0 for _, v in series["partitioned"])

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PatternConfig(mode=CommMode.SINGLE, threads=0)
        with pytest.raises(ConfigurationError):
            PatternConfig(mode=CommMode.SINGLE, message_bytes=0)
        with pytest.raises(ConfigurationError):
            PatternConfig(mode=CommMode.SINGLE, steps=0)

    def test_worker_threads_property(self):
        assert PatternConfig(mode=CommMode.SINGLE,
                             threads=8).worker_threads == 1
        assert PatternConfig(mode=CommMode.MULTI,
                             threads=8).worker_threads == 8
