"""Figure 9: Sweep3D communication throughput, 10 ms compute, 4% single
noise, hot cache.

Paper shape: partitioned ≈ point-to-point for small/medium messages; the
gap grows with message size; multi-threaded MULTIPLE falls below
single-threaded; partitioned ends up an order of magnitude above
single-threaded at the largest size (15.1x on Niagara — this factor feeds
the Figure 13 projection).
"""

from conftest import emit, full_mode

from repro.core.suite import FIGURES

FIG = FIGURES["fig9"]


def test_fig09_sweep3d_10ms(figure_bench):
    series = figure_bench(FIG.driver, quick=not full_mode())
    emit("fig09_sweep3d_10ms", FIG.render(series))

    single = dict(series["single"])
    multi = dict(series["multi"])
    part = dict(series["partitioned"])
    sizes = sorted(single)
    # Divergence grows with size; partitioned dominates at the top end.
    assert part[sizes[-1]] / single[sizes[-1]] > \
        part[sizes[0]] / single[sizes[0]]
    assert part[sizes[-1]] > 5 * single[sizes[-1]]
    # MULTIPLE falls below single-threaded somewhere in the range.
    assert any(multi[m] < single[m] for m in sizes)
