"""SNAP-like proxy application (§4.8).

SNAP models discrete-ordinates neutral-particle transport (a PARTISN
stand-in): a 3D domain decomposed over a 2D process grid, swept by KBA
wavefronts over angle/energy blocks, one octant after another, using plain
MPI send/recv — the SNAP-C port the paper profiles is single-threaded MPI.

We reproduce the *performance structure* the paper's Figure 13 depends on:
with a strong-scaled problem, per-rank compute shrinks as ``1/P`` while
wavefront fill/drain and per-block messaging do not, so the mpiP-measured
MPI fraction grows from a few percent at small node counts to dominant at
hundreds of nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..machine import MachineSpec, NIAGARA_NODE
from ..mpi import Cluster, DEFAULT_COSTS, MPICosts, ThreadingMode
from ..network import NIAGARA_EDR, NetworkParams
from .mpip import MPIPProfiler, MPIPReport

__all__ = ["SnapConfig", "SnapRunResult", "run_snap", "process_grid"]


def process_grid(nranks: int) -> Tuple[int, int]:
    """Near-square 2D factorization of ``nranks`` (SNAP's npey × npez)."""
    if nranks < 1:
        raise ConfigurationError(f"nranks must be >= 1: {nranks}")
    px = int(math.sqrt(nranks))
    while px > 1 and nranks % px != 0:
        px -= 1
    return px, nranks // px


@dataclass(frozen=True)
class SnapConfig:
    """A SNAP-like run description.

    Attributes
    ----------
    nodes:
        Node count (one rank per node, like the paper's SNAP scaling runs).
    total_compute:
        Strong-scaled total compute per sweep, divided over ranks and
        blocks (seconds of CPU work for the whole domain).
    blocks:
        Angle/energy work blocks per octant (KBA pipeline depth).
    octants:
        Sweep directions per timestep (SNAP sweeps all 8; fewer makes the
        simulation cheaper without changing the fractions' shape).
    timesteps:
        Outer iterations.
    boundary_bytes:
        Boundary data per block at one node; shrinks with the grid
        dimension as the strong-scaled domain is split.
    """

    nodes: int
    total_compute: float = 6.0
    blocks: int = 32
    octants: int = 2
    timesteps: int = 1
    boundary_bytes: int = 2 << 20
    seed: int = 0
    spec: MachineSpec = NIAGARA_NODE
    inter_node: NetworkParams = NIAGARA_EDR
    costs: MPICosts = DEFAULT_COSTS

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError(f"nodes must be >= 1: {self.nodes}")
        if self.total_compute <= 0:
            raise ConfigurationError("total_compute must be positive")
        if min(self.blocks, self.octants, self.timesteps) < 1:
            raise ConfigurationError(
                "blocks/octants/timesteps must be >= 1")
        if self.boundary_bytes < 1:
            raise ConfigurationError("boundary_bytes must be >= 1")

    @property
    def grid(self) -> Tuple[int, int]:
        """The 2D process grid."""
        return process_grid(self.nodes)

    def compute_per_block(self) -> float:
        """Per-rank, per-block compute under strong scaling."""
        return self.total_compute / (self.nodes * self.blocks
                                     * self.octants * self.timesteps)

    def message_bytes(self) -> int:
        """Per-block boundary message size (shrinks with the grid)."""
        px, py = self.grid
        return max(64, self.boundary_bytes // max(px, py))

    def with_overrides(self, **kwargs) -> "SnapConfig":
        """Copy with fields replaced."""
        return replace(self, **kwargs)


@dataclass
class SnapRunResult:
    """Outcome of one SNAP proxy run."""

    config: SnapConfig
    report: MPIPReport
    elapsed: float

    @property
    def mpi_fraction(self) -> float:
        """The mpiP aggregate MPI-time fraction."""
        return self.report.mpi_fraction


def _octant_neighbors(px: int, py: int, rank: int,
                      octant: int) -> Dict[str, Optional[int]]:
    """Upstream/downstream neighbours for one sweep direction.

    Octant bits flip the sweep direction along each grid axis, like KBA
    corner starts.
    """
    x, y = rank % px, rank // px
    dx = 1 if octant & 1 == 0 else -1
    dy = 1 if octant & 2 == 0 else -1
    up_x = x - dx
    dn_x = x + dx
    up_y = y - dy
    dn_y = y + dy
    def rank_of(cx: int, cy: int) -> Optional[int]:
        if 0 <= cx < px and 0 <= cy < py:
            return cy * px + cx
        return None
    return {
        "up_x": rank_of(up_x, y),
        "dn_x": rank_of(dn_x, y),
        "up_y": rank_of(x, up_y),
        "dn_y": rank_of(x, dn_y),
    }


def run_snap(config: SnapConfig) -> SnapRunResult:
    """Run the SNAP proxy and return its mpiP report.

    Single-threaded MPI per rank (as in SNAP-C): per octant, per block,
    each rank receives its upstream x/y boundaries, computes, and forwards
    downstream.  All MPI calls are wrapped by the profiler.
    """
    px, py = config.grid
    cluster = Cluster(
        nranks=config.nodes,
        spec=config.spec,
        inter_node=config.inter_node,
        costs=config.costs,
        mode=ThreadingMode.FUNNELED,
        seed=config.seed,
    )
    profilers: List[MPIPProfiler] = []
    comp = config.compute_per_block()
    msg = config.message_bytes()
    record: Dict[str, float] = {}

    def program(ctx):
        prof = MPIPProfiler(ctx)
        profilers.append(prof)
        comm, main = ctx.comm, ctx.main
        yield from comm.barrier(main)
        prof.start_app()
        if ctx.rank == 0:
            record["t_start"] = ctx.sim.now
        for ts in range(config.timesteps):
            for octant in range(config.octants):
                nbrs = _octant_neighbors(px, py, ctx.rank, octant)
                for b in range(config.blocks):
                    tag = ((ts * config.octants + octant)
                           * config.blocks + b) * 2
                    if nbrs["up_x"] is not None:
                        yield from prof.timed(
                            comm.recv(main, nbrs["up_x"], tag, msg),
                            "MPI_Recv(x)")
                    if nbrs["up_y"] is not None:
                        yield from prof.timed(
                            comm.recv(main, nbrs["up_y"], tag + 1, msg),
                            "MPI_Recv(y)")
                    yield from main.compute(comp)
                    reqs = []
                    if nbrs["dn_x"] is not None:
                        reqs.append((yield from prof.timed(
                            comm.isend(main, nbrs["dn_x"], tag, msg),
                            "MPI_Isend(x)")))
                    if nbrs["dn_y"] is not None:
                        reqs.append((yield from prof.timed(
                            comm.isend(main, nbrs["dn_y"], tag + 1, msg),
                            "MPI_Isend(y)")))
                    if reqs:
                        yield from prof.timed(
                            comm.wait_all(main, reqs), "MPI_Waitall")
            # SNAP converges flux between octant sweeps: a small allreduce.
            yield from prof.timed(
                comm.allreduce(main, 8, value=1.0), "MPI_Allreduce")
        prof.stop_app()
        if ctx.rank == 0:
            record["t_end"] = ctx.sim.now

    cluster.run(program)
    report = MPIPReport.from_profilers(profilers)
    return SnapRunResult(config=config, report=report,
                         elapsed=record["t_end"] - record["t_start"])
