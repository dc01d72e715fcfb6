"""Halo3D motif: a 7-point (6-neighbour) halo exchange in 3D (§2.3, §4.7).

Ranks form a ``gx × gy × gz`` grid (non-periodic).  Threads form a
``c × c × c`` cube inside each rank (the paper's 8 = 2³ and 64 = 4³
configurations); each face of the rank's subdomain is exchanged with the
corresponding neighbour and is split into ``c²`` partitions, one per thread
on that face (2×2 = 4 partitions for 8 threads, 4×4 = 16 for 64 threads).
Interior threads compute but own no face partition.

Per step and mode:

* SINGLE — compute, then six whole-face nonblocking exchanges.
* MULTI — threads compute, then each surface thread exchanges its own face
  chunks point-to-point under ``MPI_THREAD_MULTIPLE``.
* PARTITIONED — persistent partitioned transfers per face; surface threads
  ``pready`` their partitions as their compute finishes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..mpi import Cluster
from ..partitioned import partition_sizes
from .motif import CommMode, PatternConfig, PatternRunResult

__all__ = ["Halo3DGrid", "run_halo3d", "thread_cube_side", "face_partition",
           "FACES", "opposite_face"]

#: The six faces as (axis, direction) pairs, indexed 0..5.
FACES: Tuple[Tuple[int, int], ...] = (
    (0, -1), (0, +1), (1, -1), (1, +1), (2, -1), (2, +1))

#: Tag bases (user tag space).
_TAG_BASE = 40_000
_PTAG_BASE = 50_000


def opposite_face(face: int) -> int:
    """The neighbour-side face id matching our ``face``."""
    return face ^ 1


def thread_cube_side(threads: int) -> int:
    """Side length ``c`` with ``c³ == threads`` (the paper's requirement).

    Raises :class:`~repro.errors.ConfigurationError` for non-cubes, echoing
    the paper's note that Halo3D thread counts must be cubed numbers.
    """
    c = round(threads ** (1.0 / 3.0))
    for cand in (c - 1, c, c + 1):
        if cand >= 1 and cand ** 3 == threads:
            return cand
    raise ConfigurationError(
        f"halo3d thread count must be a cube (8, 27, 64, ...): {threads}")


def face_partition(face: int, tx: int, ty: int, tz: int,
                   c: int) -> Optional[int]:
    """Partition index thread (tx,ty,tz) owns on ``face`` (None if interior
    to that face)."""
    axis, direction = FACES[face]
    coord = (tx, ty, tz)[axis]
    boundary = 0 if direction < 0 else c - 1
    if coord != boundary:
        return None
    if axis == 0:
        return ty * c + tz
    if axis == 1:
        return tx * c + tz
    return tx * c + ty


class Halo3DGrid:
    """Geometry of the 3D process grid."""

    def __init__(self, gx: int, gy: int, gz: int):
        if min(gx, gy, gz) < 1:
            raise ConfigurationError(
                f"grid must be >= 1x1x1: {gx}x{gy}x{gz}")
        self.dims = (gx, gy, gz)

    @property
    def nranks(self) -> int:
        """World size."""
        gx, gy, gz = self.dims
        return gx * gy * gz

    def coords(self, rank: int) -> Tuple[int, int, int]:
        """(x, y, z) of ``rank`` (x fastest)."""
        gx, gy, _ = self.dims
        return rank % gx, (rank // gx) % gy, rank // (gx * gy)

    def rank_of(self, x: int, y: int, z: int) -> int:
        """Rank at (x, y, z)."""
        gx, gy, _ = self.dims
        return z * gx * gy + y * gx + x

    def neighbor(self, rank: int, face: int) -> Optional[int]:
        """Neighbour across ``face`` (None at the domain boundary)."""
        x, y, z = self.coords(rank)
        axis, direction = FACES[face]
        coord = [x, y, z]
        coord[axis] += direction
        if not (0 <= coord[axis] < self.dims[axis]):
            return None
        return self.rank_of(*coord)

    def directed_edges(self) -> int:
        """Directed neighbour pairs (each exchanges ``message_bytes``)."""
        gx, gy, gz = self.dims
        undirected = ((gx - 1) * gy * gz + gx * (gy - 1) * gz
                      + gx * gy * (gz - 1))
        return 2 * undirected


def _step_tag(step: int, face: int, part: int = 0) -> int:
    return _TAG_BASE + (step * 6 + face) * 1024 + part


def _single_program(ctx, config: PatternConfig, grid: Halo3DGrid,
                    record: Dict):
    comm, main = ctx.comm, ctx.main
    m = config.message_bytes
    nbrs = [grid.neighbor(ctx.rank, f) for f in range(6)]
    rng = ctx.rng("halo-noise")
    for it in range(config.total_iterations):
        yield from comm.barrier(main)
        if ctx.rank == 0:
            record.setdefault(it, {})["t_start"] = ctx.sim.now
        for s in range(config.steps):
            comp = config.noise.compute_times(rng, 1,
                                              config.compute_seconds)
            yield from main.compute(float(comp[0]))
            reqs = []
            for f, nb in enumerate(nbrs):
                if nb is None:
                    continue
                reqs.append((yield from comm.isend(
                    main, nb, _step_tag(s, f), m)))
                reqs.append((yield from comm.irecv(
                    main, nb, _step_tag(s, opposite_face(f)), m)))
            if reqs:
                yield from comm.wait_all(main, reqs)
        yield from comm.barrier(main)
        if ctx.rank == 0:
            record[it]["t_end"] = ctx.sim.now


def _multi_program(ctx, config: PatternConfig, grid: Halo3DGrid,
                   record: Dict):
    comm, main = ctx.comm, ctx.main
    c = thread_cube_side(config.threads)
    parts = c * c
    chunk_sizes = partition_sizes(config.message_bytes, parts)
    nbrs = [grid.neighbor(ctx.rank, f) for f in range(6)]
    rng = ctx.rng("halo-noise")
    n = config.threads
    for it in range(config.total_iterations):
        yield from comm.barrier(main)
        if ctx.rank == 0:
            record.setdefault(it, {})["t_start"] = ctx.sim.now
        for s in range(config.steps):
            comp = config.noise.compute_times(rng, n,
                                              config.compute_seconds)

            def worker(tc, s=s, comp=comp):
                tid = tc.thread_id
                tx, ty, tz = (tid // (c * c), (tid // c) % c, tid % c)
                yield from tc.compute(float(comp[tid]))
                reqs = []
                for f, nb in enumerate(nbrs):
                    if nb is None:
                        continue
                    pidx = face_partition(f, tx, ty, tz, c)
                    if pidx is None:
                        continue
                    sz = chunk_sizes[pidx]
                    reqs.append((yield from comm.isend(
                        tc, nb, _step_tag(s, f, pidx + 1), sz)))
                    reqs.append((yield from comm.irecv(
                        tc, nb, _step_tag(s, opposite_face(f), pidx + 1),
                        sz)))
                if reqs:
                    yield from comm.wait_all(tc, reqs)

            team = yield from ctx.fork(n, worker)
            yield from team.join()
        yield from comm.barrier(main)
        if ctx.rank == 0:
            record[it]["t_end"] = ctx.sim.now


def _partitioned_program(ctx, config: PatternConfig, grid: Halo3DGrid,
                         record: Dict):
    comm, main = ctx.comm, ctx.main
    c = thread_cube_side(config.threads)
    parts = c * c
    m = config.message_bytes
    nbrs = [grid.neighbor(ctx.rank, f) for f in range(6)]
    rng = ctx.rng("halo-noise")
    n = config.threads
    sends, recvs = {}, {}
    for f, nb in enumerate(nbrs):
        if nb is None:
            continue
        sends[f] = yield from comm.psend_init(
            main, nb, _PTAG_BASE + f, m, parts)
        recvs[f] = yield from comm.precv_init(
            main, nb, _PTAG_BASE + opposite_face(f), m, parts)
    for it in range(config.total_iterations):
        yield from comm.barrier(main)
        if ctx.rank == 0:
            record.setdefault(it, {})["t_start"] = ctx.sim.now
        for s in range(config.steps):
            for r in recvs.values():
                yield from r.start(main)
            for r in sends.values():
                yield from r.start(main)
            comp = config.noise.compute_times(rng, n,
                                              config.compute_seconds)

            def worker(tc, comp=comp):
                tid = tc.thread_id
                tx, ty, tz = (tid // (c * c), (tid // c) % c, tid % c)
                yield from tc.compute(float(comp[tid]))
                for f, ps in sends.items():
                    pidx = face_partition(f, tx, ty, tz, c)
                    if pidx is not None:
                        yield from ps.pready(tc, pidx)

            team = yield from ctx.fork(n, worker)
            yield from team.join()
            for r in list(sends.values()) + list(recvs.values()):
                yield from r.wait(main)
        yield from comm.barrier(main)
        if ctx.rank == 0:
            record[it]["t_end"] = ctx.sim.now


def run_halo3d(config: PatternConfig,
               grid: Optional[Halo3DGrid] = None) -> PatternRunResult:
    """Run the Halo3D motif and return throughput per iteration.

    ``grid`` defaults to 2×2×2 ranks, one per node.
    """
    grid = grid or Halo3DGrid(2, 2, 2)
    if config.mode is not CommMode.SINGLE:
        thread_cube_side(config.threads)  # validate early
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
                      * grid.directed_edges())
    elapsed = [record[it]["t_end"] - record[it]["t_start"]
               for it in range(config.warmup, config.total_iterations)]
    # Halo steps are bulk-synchronous: one compute slot per step, scaled
    # for oversubscription (64 threads on 40 cores compute ~2x longer).
    from ..machine import bind_threads, scaled_compute_time
    binding = bind_threads(max(1, config.worker_threads), config.spec)
    slot = max(scaled_compute_time(
        config.compute_seconds,
        binding.oversubscription_factor(t), config.spec)
        for t in range(binding.nthreads))
    compute_cp = config.steps * slot
    return PatternRunResult(config=config, nranks=grid.nranks,
                            bytes_per_iteration=bytes_per_iter,
                            compute_critical_path=compute_cp,
                            elapsed=elapsed)
