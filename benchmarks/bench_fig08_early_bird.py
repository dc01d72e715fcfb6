"""Figure 8: % early-bird communication under uniform noise.

Paper shape: most transfers happen before the equivalent thread join for
small/medium messages; at 10 ms compute the percentage collapses for large
messages (the early-bird window is too small), while 100 ms keeps it high
and makes 8 vs 32 partitions nearly indistinguishable; two partitions
already exploit early-bird effectively.
"""

from conftest import emit, full_mode

from repro.core.suite import FIGURES

FIG = FIGURES["fig8"]


def test_fig08_early_bird(figure_bench):
    panels = figure_bench(FIG.driver, quick=not full_mode())
    emit("fig08_early_bird", FIG.render(panels))

    fast, slow = panels[0.010], panels[0.100]
    sizes = fast.message_sizes
    small, huge = sizes[0], sizes[-1]
    assert fast.value("early_bird_fraction", small, 8) > 0.9
    assert fast.value("early_bird_fraction", huge, 8) < 0.5
    assert slow.value("early_bird_fraction", huge, 8) > 0.8
    assert abs(slow.value("early_bird_fraction", small, 8)
               - slow.value("early_bird_fraction", small, 32)) < 0.1
    assert fast.value("early_bird_fraction", small, 2) > 0.8
