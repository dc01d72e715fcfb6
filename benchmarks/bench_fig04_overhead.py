"""Figure 4: overhead of partitioned vs point-to-point, hot and cold cache.

Paper shape: ~1x–1.6x for one partition; overhead grows with partition
count for small (latency-bound) messages and approaches 1x for large ones;
32 partitions spike far above 16 (socket spillover, up to 59.4x on
Niagara); cold cache reads amortize the ratio downward.
"""

from conftest import emit, full_mode

from repro.core.suite import FIGURES

FIG = FIGURES["fig4"]


def test_fig04_overhead(figure_bench):
    panels = figure_bench(FIG.driver, quick=not full_mode())
    emit("fig04_overhead", FIG.render(panels))

    hot = panels["hot"]
    sizes = hot.message_sizes
    small, large = sizes[0], sizes[-1]
    # Shape assertions mirroring the paper's §4.2 claims.
    assert 1.0 <= hot.value("overhead", small, 1) < 2.0
    assert abs(hot.value("overhead", large, 1) - 1.0) < 0.15
    assert hot.value("overhead", small, 16) > hot.value("overhead", small, 2)
    assert hot.value("overhead", small, 32) > \
        2.5 * hot.value("overhead", small, 16)
