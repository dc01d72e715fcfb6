"""Sweep3D motif: a KBA wavefront over a 2D process grid (§2.2, §4.6).

The 3D domain is decomposed over a ``px × py`` process grid; KBA blocks
flow as wavefronts from the (0,0) corner: each rank receives its west and
north dependencies, computes the block, then forwards east and south.
``steps`` KBA blocks pipeline through the grid per iteration.

Three communication modes (see :class:`~repro.patterns.motif.CommMode`):
SINGLE sends each ``message_bytes`` boundary whole; MULTI slices it across
threads, each doing its own point-to-point under ``MPI_THREAD_MULTIPLE``;
PARTITIONED uses one persistent partitioned transfer per direction with one
partition per thread, restarted every block.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..mpi import Cluster
from ..partitioned import partition_sizes
from .motif import CommMode, PatternConfig, PatternRunResult

__all__ = ["Sweep3DGrid", "run_sweep3d"]

#: Tag bases for the two flow directions (user tag space).
_TAG_EAST = 10_000
_TAG_SOUTH = 20_000
#: Partitioned transfers are matched once; one tag per direction suffices.
_PTAG_EAST = 30_000
_PTAG_SOUTH = 30_001


class Sweep3DGrid:
    """Geometry of the 2D process grid the sweep runs over."""

    def __init__(self, px: int, py: int):
        if px < 1 or py < 1:
            raise ConfigurationError(f"grid must be >= 1x1: {px}x{py}")
        self.px = px
        self.py = py

    @property
    def nranks(self) -> int:
        """World size."""
        return self.px * self.py

    def coords(self, rank: int) -> Tuple[int, int]:
        """(x, y) of ``rank`` (x fastest)."""
        return rank % self.px, rank // self.px

    def rank_of(self, x: int, y: int) -> int:
        """Rank at (x, y)."""
        return y * self.px + x

    def neighbors(self, rank: int) -> Dict[str, Optional[int]]:
        """The wavefront neighbours: west/north upstream, east/south down."""
        x, y = self.coords(rank)
        return {
            "west": self.rank_of(x - 1, y) if x > 0 else None,
            "east": self.rank_of(x + 1, y) if x < self.px - 1 else None,
            "north": self.rank_of(x, y - 1) if y > 0 else None,
            "south": self.rank_of(x, y + 1) if y < self.py - 1 else None,
        }

    def edge_count(self) -> int:
        """Directed communication edges per block (east + south links)."""
        return (self.px - 1) * self.py + self.px * (self.py - 1)


def _block_tag(base: int, block: int, thread: int, threads: int) -> int:
    return base + block * threads + thread


def _single_program(ctx, config: PatternConfig, grid: Sweep3DGrid,
                    record: Dict):
    comm, main = ctx.comm, ctx.main
    nb = grid.neighbors(ctx.rank)
    m = config.message_bytes
    rng = ctx.rng("sweep-noise")
    for it in range(config.total_iterations):
        yield from comm.barrier(main)
        if ctx.rank == 0:
            record.setdefault(it, {})["t_start"] = ctx.sim.now
        for b in range(config.steps):
            if nb["west"] is not None:
                yield from comm.recv(main, nb["west"],
                                     _block_tag(_TAG_EAST, b, 0, 1), m)
            if nb["north"] is not None:
                yield from comm.recv(main, nb["north"],
                                     _block_tag(_TAG_SOUTH, b, 0, 1), m)
            comp = config.noise.compute_times(rng, 1,
                                              config.compute_seconds)
            yield from main.compute(float(comp[0]))
            reqs = []
            if nb["east"] is not None:
                reqs.append((yield from comm.isend(
                    main, nb["east"], _block_tag(_TAG_EAST, b, 0, 1), m)))
            if nb["south"] is not None:
                reqs.append((yield from comm.isend(
                    main, nb["south"], _block_tag(_TAG_SOUTH, b, 0, 1), m)))
            if reqs:
                yield from comm.wait_all(main, reqs)
        yield from comm.barrier(main)
        if ctx.rank == 0:
            record[it]["t_end"] = ctx.sim.now


def _multi_program(ctx, config: PatternConfig, grid: Sweep3DGrid,
                   record: Dict):
    """Fork-join multi-threaded point-to-point wavefront.

    Each thread receives its slice under ``MPI_THREAD_MULTIPLE``, then the
    team barriers before computing — the block's compute consumes the whole
    boundary, so the fork-join model cannot exploit partial arrivals.  That
    coarse synchronization (plus progress-lock contention from the blocked
    receivers) is what partitioned communication removes.
    """
    comm, main = ctx.comm, ctx.main
    nb = grid.neighbors(ctx.rank)
    n = config.threads
    slice_sizes = partition_sizes(config.message_bytes, n)
    rng = ctx.rng("sweep-noise")
    from ..threadsim import SimBarrier
    for it in range(config.total_iterations):
        yield from comm.barrier(main)
        if ctx.rank == 0:
            record.setdefault(it, {})["t_start"] = ctx.sim.now
        for b in range(config.steps):
            comp = config.noise.compute_times(rng, n,
                                              config.compute_seconds)
            tbar = SimBarrier(ctx.sim, n)

            def worker(tc, b=b, comp=comp, tbar=tbar):
                tid = tc.thread_id
                sz = slice_sizes[tid]
                if nb["west"] is not None:
                    req = yield from comm.irecv(
                        tc, nb["west"], _block_tag(_TAG_EAST, b, tid, n), sz)
                    yield from comm.wait(tc, req)
                if nb["north"] is not None:
                    req = yield from comm.irecv(
                        tc, nb["north"], _block_tag(_TAG_SOUTH, b, tid, n),
                        sz)
                    yield from comm.wait(tc, req)
                # The block needs the whole west/north boundary: wait for
                # every thread's slice before computing.
                yield from tbar.wait()
                yield from tc.compute(float(comp[tid]))
                reqs = []
                if nb["east"] is not None:
                    reqs.append((yield from comm.isend(
                        tc, nb["east"], _block_tag(_TAG_EAST, b, tid, n),
                        sz)))
                if nb["south"] is not None:
                    reqs.append((yield from comm.isend(
                        tc, nb["south"], _block_tag(_TAG_SOUTH, b, tid, n),
                        sz)))
                if reqs:
                    yield from comm.wait_all(tc, reqs)

            team = yield from ctx.fork(n, worker)
            yield from team.join()
        yield from comm.barrier(main)
        if ctx.rank == 0:
            record[it]["t_end"] = ctx.sim.now


def _partitioned_program(ctx, config: PatternConfig, grid: Sweep3DGrid,
                         record: Dict):
    """Double-buffered partitioned wavefront.

    Two persistent partitioned transfers per direction alternate across
    blocks (even/odd), so block ``b``'s transfers drain while block
    ``b+1`` computes — the buffer-reuse pipelining persistent partitioned
    communication is designed for.  Threads gate their compute on their
    *own* partition's ``MPI_Parrived`` (lock-free), giving thread-level
    wavefront pipelining: the sends of a staggered team keep the NIC busy
    during the compute window, which is where the paper's large
    partitioned-vs-single throughput gap comes from.
    """
    comm, main = ctx.comm, ctx.main
    nb = grid.neighbors(ctx.rank)
    n = config.threads
    m = config.message_bytes
    rng = ctx.rng("sweep-noise")
    sends: List[List] = [[], []]
    recvs: List[List] = [[], []]
    for phase in (0, 1):
        if nb["east"] is not None:
            sends[phase].append((yield from comm.psend_init(
                main, nb["east"], _PTAG_EAST + 2 * phase, m, n)))
        if nb["south"] is not None:
            sends[phase].append((yield from comm.psend_init(
                main, nb["south"], _PTAG_SOUTH + 2 * phase, m, n)))
        if nb["west"] is not None:
            recvs[phase].append((yield from comm.precv_init(
                main, nb["west"], _PTAG_EAST + 2 * phase, m, n)))
        if nb["north"] is not None:
            recvs[phase].append((yield from comm.precv_init(
                main, nb["north"], _PTAG_SOUTH + 2 * phase, m, n)))
    from ..sim import Event
    for it in range(config.total_iterations):
        yield from comm.barrier(main)
        if ctx.rank == 0:
            record.setdefault(it, {})["t_start"] = ctx.sim.now
        # Pre-draw all sweeps' per-thread compute amounts (common random
        # numbers, same stream discipline as the fork-join modes).
        computes = [config.noise.compute_times(rng, n,
                                               config.compute_seconds)
                    for _ in range(config.steps)]
        # One parallel region for the whole iteration: threads persist
        # across sweeps, so the partition-arrival stagger carries over and
        # the NIC stays busy inside the compute window instead of being
        # re-synchronized away by a join after every sweep.
        armed = [Event(ctx.sim) for _ in range(config.steps)]
        # consumed[s] triggers when every thread has finished sweep s; the
        # buffer used by sweep s must not be restarted before then, or a
        # straggler thread would observe the *new* epoch's arrival events
        # (real double-buffered partitioned code needs the same sync
        # before MPI_Start re-arms a receive buffer).
        consumed = [Event(ctx.sim) for _ in range(config.steps)]
        done_counts = [0] * config.steps

        def worker(tc):
            tid = tc.thread_id
            for s in range(config.steps):
                if not armed[s].triggered:
                    yield armed[s]
                cur = s % 2
                # Gate on this thread's slice only (MPI_Parrived is a
                # lock-free flag poll, so no progress contention).
                for r in recvs[cur]:
                    ev = r.arrived_event(tid)
                    if not ev.triggered:
                        yield ev
                yield from tc.compute(float(computes[s][tid]))
                for r in sends[cur]:
                    yield from r.pready(tc, tid)
                done_counts[s] += 1
                if done_counts[s] == n:
                    consumed[s].succeed()

        team = yield from ctx.fork(n, worker)
        for s in range(config.steps):
            cur = s % 2
            if s >= 2:
                # Retire the epoch that used this buffer two sweeps ago —
                # and make sure every thread is past it.
                if not consumed[s - 2].triggered:
                    yield consumed[s - 2]
                for r in sends[cur] + recvs[cur]:
                    yield from r.wait(main)
            for r in recvs[cur]:
                yield from r.start(main)
            for r in sends[cur]:
                yield from r.start(main)
            armed[s].succeed()
        yield from team.join()
        for s in range(max(0, config.steps - 2), config.steps):
            for r in sends[s % 2] + recvs[s % 2]:
                yield from r.wait(main)
        yield from comm.barrier(main)
        if ctx.rank == 0:
            record[it]["t_end"] = ctx.sim.now


def run_sweep3d(config: PatternConfig,
                grid: Optional[Sweep3DGrid] = None) -> PatternRunResult:
    """Run the Sweep3D motif and return throughput per iteration.

    ``grid`` defaults to 3×3 ranks, one per node (paper-style placement).
    """
    grid = grid or Sweep3DGrid(3, 3)
    cluster = Cluster(
        nranks=grid.nranks,
        spec=config.spec,
        inter_node=config.inter_node,
        costs=config.costs,
        seed=config.seed,
    )
    record: Dict[int, Dict] = {}
    programs = {
        CommMode.SINGLE: _single_program,
        CommMode.MULTI: _multi_program,
        CommMode.PARTITIONED: _partitioned_program,
    }
    body = programs[config.mode]

    def program(ctx):
        yield from body(ctx, config, grid, record)

    cluster.run(program)
    bytes_per_iter = (config.steps * config.message_bytes
                      * grid.edge_count())
    elapsed = [record[it]["t_end"] - record[it]["t_start"]
               for it in range(config.warmup, config.total_iterations)]
    # Wavefront compute critical path: the last corner finishes its last
    # block after (pipeline diameter + steps - 1) block-compute slots.
    slots = grid.px + grid.py - 2 + config.steps
    compute_cp = slots * config.compute_seconds
    return PatternRunResult(config=config, nranks=grid.nranks,
                            bytes_per_iteration=bytes_per_iter,
                            compute_critical_path=compute_cp,
                            elapsed=elapsed)
