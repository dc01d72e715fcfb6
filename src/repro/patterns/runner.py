"""Throughput sweeps over motifs × modes × message sizes (Figures 9–12)."""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..errors import ConfigurationError
from .halo3d import Halo3DGrid, run_halo3d
from .motif import CommMode, PatternConfig, PatternRunResult
from .sweep3d import Sweep3DGrid, run_sweep3d

__all__ = ["run_motif", "throughput_series", "MOTIFS"]

#: Registered motifs: name -> (runner, default grid factory).
MOTIFS: Dict[str, Tuple[Callable, Callable]] = {
    "sweep3d": (run_sweep3d, lambda: Sweep3DGrid(3, 3)),
    "halo3d": (run_halo3d, lambda: Halo3DGrid(2, 2, 2)),
}


def run_motif(motif: str, config: PatternConfig,
              grid=None) -> PatternRunResult:
    """Run one motif by name (``"sweep3d"`` or ``"halo3d"``)."""
    try:
        runner, default_grid = MOTIFS[motif]
    except KeyError:
        raise ConfigurationError(
            f"unknown motif {motif!r}; choose from {sorted(MOTIFS)}")
    return runner(config, grid if grid is not None else default_grid())


def throughput_series(motif: str,
                      base: PatternConfig,
                      message_sizes: Sequence[int],
                      modes: Sequence[CommMode] = tuple(CommMode),
                      grid=None,
                      ) -> Dict[str, List[Tuple[int, float]]]:
    """Throughput (bytes/s) per mode across message sizes.

    Returns ``{mode_name: [(message_bytes, mean_throughput), ...]}`` — the
    series layout of the paper's Figures 9–12.
    """
    if not message_sizes:
        raise ConfigurationError("need at least one message size")
    out: Dict[str, List[Tuple[int, float]]] = {}
    for mode in modes:
        pts: List[Tuple[int, float]] = []
        for m in message_sizes:
            config = base.with_overrides(mode=mode, message_bytes=m)
            result = run_motif(motif, config, grid=grid)
            pts.append((m, result.mean_throughput))
        out[mode.value] = pts
    return out
