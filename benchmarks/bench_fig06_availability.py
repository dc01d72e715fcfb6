"""Figure 6: application availability, single-thread delay model, 4% noise.

Paper shape: in a noisy environment more partitions free more CPU time for
small messages; 16 partitions beat 32 (spillover); availability drops off
past ~4 MiB, and 100 ms compute shifts the drop-off to larger messages.
"""

from conftest import emit, full_mode

from repro.core.suite import FIGURES

FIG = FIGURES["fig6"]


def test_fig06_availability(figure_bench):
    panels = figure_bench(FIG.driver, quick=not full_mode())
    emit("fig06_availability", FIG.render(panels))

    fast = panels[0.010]
    sizes = fast.message_sizes
    small, huge = sizes[0], sizes[-1]
    mid = min(sizes, key=lambda m: abs(m - (1 << 20)))
    assert fast.value("application_availability", small, 16) > \
        fast.value("application_availability", small, 2)
    assert fast.value("application_availability", small, 16) > \
        fast.value("application_availability", small, 32)
    assert fast.value("application_availability", huge, 16) < \
        fast.value("application_availability", mid, 16)
    slow = panels[0.100]
    assert slow.value("application_availability", huge, 16) > \
        fast.value("application_availability", huge, 16)
