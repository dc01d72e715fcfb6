"""Figure 13: expected speedup from porting SNAP-C to MPI Partitioned.

The SNAP proxy is profiled with the mpiP-style profiler at each node
count; the measured MPI-time fraction feeds the Amdahl projection with the
15.1x Sweep3D communication speedup.

Paper shape: MPI send/receive is 1–6% of runtime at small node counts
(small expected gains), ~20% at 128 nodes and ~55% at 256 nodes, giving
the large projected speedups at scale (~2x at 256 nodes).
"""

from conftest import emit, full_mode

from repro.core.suite import FIGURES

FIG = FIGURES["fig13"]


def test_fig13_snap_projection():
    proj = FIG.driver(quick=not full_mode())
    emit("fig13_snap_projection", FIG.render(proj))

    rows = {r.nodes: r for r in proj.rows}
    # Small node counts: MPI is a single-digit percentage of runtime.
    assert rows[2].mpi_percent < 8.0
    assert rows[2].projected_speedup < 1.1
    # MPI share and projected speedup both grow monotonically.
    speedups = [r.projected_speedup for r in proj.rows]
    assert speedups == sorted(speedups)
    # At 256 nodes MPI dominates a large share and the projection is
    # worthwhile (paper: 54.5% -> ~2x).
    assert rows[256].mpi_percent > 30.0
    assert rows[256].projected_speedup > 1.5
