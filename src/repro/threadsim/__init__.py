"""Simulated OpenMP-style threading: contexts, teams, fork/join costs."""

from .barrier import SimBarrier
from .openmp import DEFAULT_OPENMP_COSTS, OpenMPCosts
from .team import ThreadContext, ThreadTeam

__all__ = [
    "SimBarrier",
    "DEFAULT_OPENMP_COSTS",
    "OpenMPCosts",
    "ThreadContext",
    "ThreadTeam",
]
