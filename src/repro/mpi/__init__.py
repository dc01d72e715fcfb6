"""Simulated MPI runtime.

Entry points:

* :class:`Cluster` — build a world and run per-rank programs.
* :class:`Communicator` — the application-facing verb set (point-to-point,
  persistent, partitioned, collectives).
* :class:`ThreadingMode` / :class:`MPICosts` — runtime configuration.
"""

from .cluster import Cluster, RankContext
from .comm import Communicator
from .diagnostics import (RankDiagnostics, cluster_report,
                          collect_diagnostics)
from .constants import (ANY_SOURCE, ANY_TAG, DEFAULT_COSTS, MPICosts,
                        ThreadingMode)
from .matching import Envelope, MatchingEngine
from .persistent import PersistentRecv, PersistentSend
from .process import MPIProcess
from .request import RecvRequest, Request, SendRequest, waitall
from .status import Status

__all__ = [
    "Cluster",
    "RankContext",
    "Communicator",
    "RankDiagnostics",
    "cluster_report",
    "collect_diagnostics",
    "ANY_SOURCE",
    "ANY_TAG",
    "DEFAULT_COSTS",
    "MPICosts",
    "ThreadingMode",
    "Envelope",
    "MatchingEngine",
    "PersistentRecv",
    "PersistentSend",
    "MPIProcess",
    "RecvRequest",
    "Request",
    "SendRequest",
    "waitall",
    "Status",
]
