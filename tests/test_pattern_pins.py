"""Pattern pins: multi-rank motif and proxy output, bit for bit.

The golden digests in ``test_sim_golden.py`` cover two-rank trials only.
These pins cover the many-rank paths (wavefront and halo exchanges in all
three communication modes, and the SNAP proxy) through the numbers they
produce: each value is pinned as ``float.hex``, so any change to event
order or timing anywhere in the DES stack shows up as a mismatch.
"""

import pytest

from repro.patterns import (CommMode, Halo3DGrid, PatternConfig,
                            Sweep3DGrid, throughput_series)
from repro.proxy import SnapConfig, snap_projection

SIZES = (4096, 262144)
BASE = PatternConfig(mode=CommMode.SINGLE, threads=4, message_bytes=4096,
                     compute_seconds=1e-3, steps=2, iterations=1, warmup=1)

SERIES = {
    "sweep3d": (BASE, Sweep3DGrid(2, 2), {
        "single": ("0x1.66a7e70f48143p+27", "0x1.76d677a988160p+32"),
        "multi": ("0x1.52bdf11444392p+27", "0x1.a14a76c56cbe9p+32"),
        "partitioned": ("0x1.2ca1b015a80cep+28", "0x1.c8901e20f3be5p+33"),
    }),
    "halo3d": (BASE.with_overrides(threads=8), Halo3DGrid(2, 2, 2), {
        "single": ("0x1.da7fe5a5e3613p+30", "0x1.78c2243e84822p+35"),
        "multi": ("0x1.ab307ea8ac2b8p+30", "0x1.45355f1863a4ap+34"),
        "partitioned": ("0x1.9c4a2ec5c2887p+30", "0x1.aa81dc34f3370p+35"),
    }),
}


@pytest.mark.parametrize("motif", sorted(SERIES))
def test_throughput_series_pins(motif):
    base, grid, expected = SERIES[motif]
    series = throughput_series(motif, base, SIZES, grid=grid)
    assert {mode: tuple(v.hex() for _, v in points)
            for mode, points in series.items()} == expected
    assert [m for m, _ in series["single"]] == list(SIZES)


def test_snap_projection_row_pin():
    row, = snap_projection(
        node_counts=(4,),
        base_config=SnapConfig(nodes=4, blocks=4, octants=1)).rows
    assert (row.nodes, row.mpi_percent.hex(), row.projected_speedup.hex(),
            row.elapsed.hex()) == (4, "0x1.0ae7fa947254ep+5",
                                   "0x1.73d7de1fad170p+0",
                                   "0x1.202127b70f9f5p+1")
