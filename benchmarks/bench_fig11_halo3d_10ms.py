"""Figure 11: Halo3D communication throughput, 10 ms compute, 4% single
noise, hot cache.

Panels: (a) 8 threads → 2x2 = 4 partitions per face; (b) 64 threads
(oversubscribed on 40 cores) → 4x4 = 16 partitions per face.

Paper shape: at 4 partitions every threading mode performs about the same;
at 64 threads the modes separate, multi-threaded point-to-point landing
close to partitioned at large sizes, and oversubscription costs tens of
percent of wall throughput.
"""

from conftest import emit, full_mode

from repro.core.suite import FIGURES

FIG = FIGURES["fig11"]


def test_fig11_halo3d_10ms(figure_bench):
    panels = figure_bench(FIG.driver, quick=not full_mode())
    emit("fig11_halo3d_10ms", FIG.render(panels))
    panel_a, panel_b = panels["a"], panels["b"]

    # Panel (a): all modes within a narrow band.
    sizes = sorted(dict(panel_a["single"]))
    for m in sizes:
        values = [dict(panel_a[mode])[m]
                  for mode in ("single", "multi", "partitioned")]
        assert max(values) < 2.0 * min(values)
    # Panel (b): partitioned ahead of multi, close at the largest size.
    top = sizes[-1]
    assert dict(panel_b["partitioned"])[top] > dict(panel_b["multi"])[top]
    assert dict(panel_b["partitioned"])[top] < \
        2.0 * dict(panel_b["multi"])[top]
