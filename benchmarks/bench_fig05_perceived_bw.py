"""Figure 5: perceived bandwidth under uniform noise, hot cache.

Paper shape: 0% noise gives a traditional bandwidth curve; with noise the
perceived bandwidth rises past the physical link rate, peaks near ~1 MiB,
then declines sharply once a single partition saturates the wire; higher
partition counts raise the peak; 16→32 declines at 10 ms compute but not
at 100 ms.
"""

from conftest import emit, full_mode

from repro.core.suite import FIGURES

FIG = FIGURES["fig5"]


def test_fig05_perceived_bandwidth():
    panels = FIG.driver(quick=not full_mode())
    emit("fig05_perceived_bw", FIG.render(panels))

    noisy = panels[(4.0, 0.010)]
    sizes = noisy.message_sizes
    mid = min(sizes, key=lambda m: abs(m - (1 << 20)))
    # Rise → peak → decline, and the peak beats the wire rate.
    assert noisy.value("perceived_bandwidth", mid, 16) > \
        noisy.value("perceived_bandwidth", sizes[0], 16)
    assert noisy.value("perceived_bandwidth", mid, 16) > \
        noisy.value("perceived_bandwidth", sizes[-1], 16)
    assert noisy.value("perceived_bandwidth", mid, 16) > 11e9
    # 16 -> 32 partitions declines at 10 ms...
    assert noisy.value("perceived_bandwidth", mid, 32) < \
        noisy.value("perceived_bandwidth", mid, 16)
    # ...but not at 100 ms.
    slow = panels[(4.0, 0.100)]
    assert slow.value("perceived_bandwidth", mid, 32) >= \
        0.95 * slow.value("perceived_bandwidth", mid, 16)
