"""Cluster: builds a simulated machine + network + MPI world and runs programs.

This is the top-level entry point of the substrate.  A *program* is a
generator function ``program(ctx)`` executed once per rank with a
:class:`RankContext` that exposes the rank's communicator, its main-thread
context, OpenMP-style ``fork``, and cache control.

Example
-------
>>> from repro.mpi import Cluster
>>> def program(ctx):
...     if ctx.rank == 0:
...         yield from ctx.comm.send(ctx.main, dest=1, tag=7, nbytes=64)
...     else:
...         status = yield from ctx.comm.recv(ctx.main, 0, 7, 64)
...         return status.nbytes
>>> Cluster(nranks=2).run(program)
[None, 64]
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..errors import ConfigurationError, DeadlockError
from ..machine import (MachineSpec, NIAGARA_NODE, ThreadBinding,
                       bind_threads, validate_spec)
from ..network import NIAGARA_EDR, NetworkParams, validate_params
from ..obs import EventBus
from ..obs.kinds import PART_INIT, TEAM_FORK
from ..sim import Process, RandomStreams, Simulator
from ..threadsim import (DEFAULT_OPENMP_COSTS, OpenMPCosts, ThreadContext,
                         ThreadTeam)
from .comm import Communicator
from .constants import DEFAULT_COSTS, MPICosts, ThreadingMode, validate_costs
from .process import MEMO_CAP, MPIProcess
from .protocol import Frame

__all__ = ["Cluster", "RankContext"]


class RankContext:
    """Everything one rank's program can touch.

    Attributes
    ----------
    rank / size:
        Identity within the world.
    comm:
        The world communicator bound to this rank.
    main:
        The main thread's :class:`ThreadContext` (thread id 0, pinned to
        the first core of the NIC's socket).
    sim / obs / spec:
        The cluster's simulation kernel, instrumentation bus, and node
        description (plain attributes: every simulated thread reads them).
    cluster:
        The owning :class:`Cluster`, held weakly (the cluster owns its
        rank contexts).
    """

    def __init__(self, cluster: "Cluster", rank: int):
        self._cluster = weakref.ref(cluster)
        self.rank = rank
        self.size = cluster.nranks
        self.sim: Simulator = cluster.sim
        self.obs: EventBus = cluster.obs
        self.spec: MachineSpec = cluster.spec
        self.proc = cluster.procs[rank]
        self.comm = Communicator(cluster, self.proc, comm_id=0,
                                 size=cluster.nranks)
        main_core = cluster.spec.nic_socket * cluster.spec.cores_per_socket
        self.main = ThreadContext(self, thread_id=0, core=main_core,
                                  team=None)

    @property
    def cluster(self) -> "Cluster":
        """The owning cluster."""
        return self._cluster()

    def rng(self, name: str):
        """A deterministic RNG stream namespaced to this rank."""
        return self.cluster.streams.stream(f"rank{self.rank}/{name}")

    def fork(self, nthreads: int,
             worker: Callable[[ThreadContext], Generator]):
        """Generator: open a parallel region of ``nthreads`` workers.

        Charges the OpenMP fork cost, binds the threads compactly from the
        NIC's socket, starts the workers, and returns the
        :class:`ThreadTeam`; callers later ``yield from team.join()``.
        """
        cluster = self.cluster
        binding = cluster._binding(nthreads)
        yield self.sim.sleep(cluster.omp_costs.fork_cost(nthreads))
        team = ThreadTeam(self, binding, worker, omp_costs=cluster.omp_costs)
        self.obs.emit(TEAM_FORK, self.sim.now, self.rank, nthreads)
        return team

    def parallel(self, nthreads: int,
                 worker: Callable[[ThreadContext], Generator]):
        """Generator: fork + join in one call; returns the worker results."""
        team = yield from self.fork(nthreads, worker)
        yield from team.join()
        return team.results()

    def invalidate_cache(self):
        """Generator: run the cold-cache invalidation pass (§3.4).

        Flushes this rank's cache model and charges the cost of streaming
        the 8 MB scratch buffer, as the SMB-derived method does.
        """
        cost = self.proc.cache.invalidate()
        yield self.sim.sleep(cost)


def _weak_route(cluster: "Cluster") -> Callable[[int, Frame], None]:
    """``cluster._route`` through a weak reference.

    Every rank's engine and NIC keeps the router, and the cluster owns
    them, so a bound method would tie each rank back to its owner.
    """
    ref = weakref.ref(cluster)

    def route(dst_rank: int, frame: Frame) -> None:
        ref()._route(dst_rank, frame)
    return route


class Cluster:
    """A simulated cluster and its MPI world.

    Every rank runs on a node of its own, and any two nodes are one
    switch apart on one Dragonfly+ wing, as in the paper's runs, so every
    rank pair talks over ``inter_node``.

    Parameters
    ----------
    nranks:
        World size.
    spec / inter_node / costs / omp_costs:
        Substrate parameter sets (Niagara-calibrated defaults).
    mode:
        MPI threading mode for every rank.
    seed:
        Master seed for all RNG streams.
    """

    def __init__(self, nranks: int, *,
                 spec: MachineSpec = NIAGARA_NODE,
                 inter_node: NetworkParams = NIAGARA_EDR,
                 costs: MPICosts = DEFAULT_COSTS,
                 mode: ThreadingMode = ThreadingMode.MULTIPLE,
                 omp_costs: OpenMPCosts = DEFAULT_OPENMP_COSTS,
                 seed: int = 0):
        if nranks < 1:
            raise ConfigurationError(f"nranks must be >= 1, got {nranks}")
        validate_spec(spec)
        validate_params(inter_node)
        validate_costs(costs)
        self.nranks = nranks
        self.spec = spec
        self.costs = costs
        self.mode = mode
        self.omp_costs = omp_costs
        self.sim = Simulator()
        self.obs = EventBus()
        self.streams = RandomStreams(seed)
        route = _weak_route(self)
        self.procs: List[MPIProcess] = [
            MPIProcess(self.sim, r, inter_node, spec, costs, mode,
                       self.obs, route)
            for r in range(nranks)
        ]
        #: Each rank's progress loop, kept here rather than on its engine
        #: (see :meth:`__del__`).
        self._progress = [
            self.sim.process(proc._progress_loop(),
                             name=f"rank{proc.rank}.progress")
            for proc in self.procs
        ]
        self.contexts: List[RankContext] = [
            RankContext(self, r) for r in range(nranks)
        ]
        self._part_pending: Dict[Tuple[int, int, int, int],
                                 Dict[str, deque]] = {}
        #: nthreads -> ThreadBinding (pure, so shared).
        self._bindings: Dict[int, ThreadBinding] = {}

    def __del__(self):
        # A progress loop waits on its rank's inbox for good, and a blocked
        # process and its event refer to each other.  Abandoning the loops
        # lets the whole world go by reference counting; each generator is
        # closed when ``_progress`` is freed.  getattr, not __dict__:
        # ``_progress`` is missing when __init__ raised, and building the
        # instance dict here would make a cycle-collector pass count the
        # cluster as resurrected and keep it for one more pass.
        for loop in getattr(self, "_progress", ()):
            loop.abandon()

    # ------------------------------------------------------------------
    # plumbing used by the runtime
    # ------------------------------------------------------------------
    def _route(self, dst_rank: int, frame: Frame) -> None:
        self.procs[dst_rank].deliver(frame)

    def _register_partitioned(self, req, is_send: bool) -> None:
        """Init-time matching of partitioned halves, in posting order."""
        self.obs.emit(PART_INIT, self.sim.now, req.proc.rank,
                      "send" if is_send else "recv", req.peer_rank, req.tag,
                      req.nbytes, req.partitions)
        if is_send:
            key = (req.proc.rank, req.peer_rank, req.tag, req.comm_id)
        else:
            key = (req.peer_rank, req.proc.rank, req.tag, req.comm_id)
        entry = self._part_pending.setdefault(
            key, {"send": deque(), "recv": deque()})
        mine, theirs = (("send", "recv") if is_send else ("recv", "send"))
        if entry[theirs]:
            peer = entry[theirs].popleft()
            req.bind(peer)
            peer.bind(req)
        else:
            entry[mine].append(req)

    def _binding(self, nthreads: int) -> ThreadBinding:
        """:func:`~repro.machine.bind_threads` on this cluster's node,
        memoized (bindings are immutable, so teams can share one)."""
        binding = self._bindings.get(nthreads)
        if binding is None:
            binding = bind_threads(nthreads, self.spec)
            if len(self._bindings) < MEMO_CAP:
                self._bindings[nthreads] = binding
        return binding

    # ------------------------------------------------------------------
    # running programs
    # ------------------------------------------------------------------
    def run(self, program: Callable[[RankContext], Generator],
            ranks: Optional[List[int]] = None) -> List[Any]:
        """Run ``program`` on every rank (or on ``ranks``) to completion.

        Returns the per-rank return values.  Raises
        :class:`~repro.errors.DeadlockError` naming the stuck ranks when the
        event queue drains with programs still waiting, and re-raises the
        first program failure otherwise.
        """
        targets = ranks if ranks is not None else list(range(self.nranks))
        procs = [
            self.sim.process(program(self.contexts[r]), name=f"rank{r}.main")
            for r in targets
        ]
        try:
            self.sim.run()
        except BaseException:
            # A failure ended the run mid-way: give it up like one that
            # stopped short.
            self._abandon([p for p in procs if not p.triggered])
            raise
        stuck = [p for p in procs if not p.triggered]
        if stuck:
            names = ", ".join(p.name for p in stuck)
            self._abandon(stuck)
            raise DeadlockError(
                f"programs never completed (likely unmatched communication "
                f"or missing start/wait): {names}")
        results = []
        for p in procs:
            if not p.ok:
                raise p.value
            results.append(p.value)
        return results

    def _abandon(self, stuck: List[Process]) -> None:
        """Give up a run that stopped short for good.

        Lets go of the blocked programs, the queued events and every
        NIC's unfinished transmissions, so the world still frees itself
        by reference counting.
        """
        self.sim.abandon(stuck)
        for proc in self.procs:
            proc.nic.abandon()

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now
