"""Figure 10: Sweep3D communication throughput, 100 ms compute.

Paper shape: same trends as Figure 9 but throughput drops with the larger
compute, and the point where partitioned diverges from point-to-point
moves to larger message sizes.
"""

from conftest import emit, full_mode

from repro.core.suite import FIGURES

FIG = FIGURES["fig10"]


def test_fig10_sweep3d_100ms():
    fast = FIGURES["fig9"].driver(quick=not full_mode())
    slow = FIG.driver(quick=not full_mode())
    emit("fig10_sweep3d_100ms", FIG.render(slow))

    single = dict(slow["single"])
    part = dict(slow["partitioned"])
    sizes = sorted(single)
    # Throughput drops relative to the 10 ms panel.
    fast_part = dict(fast["partitioned"])
    assert all(part[m] < fast_part[m] for m in sizes)
    # Partitioned still wins at the top end, by a smaller factor
    # (the divergence point moved right).
    top = sizes[-1]
    assert part[top] > 2 * single[top]
    assert part[top] / single[top] < \
        fast_part[top] / dict(fast["single"])[top]
