"""Communication-pattern motifs (Ember-style Sweep3D and Halo3D, §3.2)."""

from .halo3d import (FACES, Halo3DGrid, face_partition, opposite_face,
                     run_halo3d, thread_cube_side)
from .motif import CommMode, PatternConfig, PatternRunResult
from .runner import MOTIFS, run_motif, throughput_series
from .sweep3d import Sweep3DGrid, run_sweep3d

__all__ = [
    "FACES",
    "Halo3DGrid",
    "face_partition",
    "opposite_face",
    "run_halo3d",
    "thread_cube_side",
    "CommMode",
    "PatternConfig",
    "PatternRunResult",
    "MOTIFS",
    "run_motif",
    "throughput_series",
    "Sweep3DGrid",
    "run_sweep3d",
]
