"""Figure 12: Halo3D communication throughput, 100 ms compute.

Paper shape: as Figure 11 but with a smaller relative oversubscription
penalty — large compute hides thread time-slicing better.
"""

from conftest import emit, full_mode

from repro.core.suite import FIGURES

FIG = FIGURES["fig12"]


def test_fig12_halo3d_100ms(figure_bench):
    panels = figure_bench(FIG.driver, quick=not full_mode())
    emit("fig12_halo3d_100ms", FIG.render(panels))
    panel_a, panel_b = panels["a"], panels["b"]

    sizes = sorted(dict(panel_a["single"]))
    # Panel (a): modes remain indistinguishable at 4 partitions.
    for m in sizes:
        values = [dict(panel_a[mode])[m]
                  for mode in ("single", "multi", "partitioned")]
        assert max(values) < 2.0 * min(values)
    # Partitioned stays at or above multi in panel (b).
    top = sizes[-1]
    assert dict(panel_b["partitioned"])[top] >= \
        0.9 * dict(panel_b["multi"])[top]
