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

from collections import deque
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..errors import ConfigurationError, DeadlockError
from ..faults import FaultPlan, FaultStats, LinkFaults, ReliableTransport
from ..machine import (BindPolicy, MachineSpec, NIAGARA_NODE, ThreadBinding,
                       bind_threads, validate_spec)
from ..network import (Fabric, INTRA_NODE, NIAGARA_EDR, NetworkParams,
                       Placement, validate_params)
from ..obs import EventBus
from ..obs.kinds import FAULT_DROP, FAULT_FAILSTOP, PART_INIT, TEAM_FORK
from ..sim import RandomStreams, Simulator
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
    """

    def __init__(self, cluster: "Cluster", rank: int):
        self.cluster = cluster
        self.rank = rank
        self.size = cluster.nranks
        self.sim: Simulator = cluster.sim
        self.obs: EventBus = cluster.obs
        self.spec: MachineSpec = cluster.spec
        self.proc = cluster.procs[rank]
        self.comm = Communicator(cluster, self.proc, comm_id=0,
                                 size=cluster.nranks)
        #: Compute-time multiplier from the fault plan's per-rank
        #: slowdown (1.0 = unaffected); consumed by ThreadContext.compute.
        self.compute_scale = (cluster.faults.slowdown_for(rank)
                              if cluster.faults is not None else 1.0)
        main_core = cluster.spec.nic_socket * cluster.spec.cores_per_socket
        self.main = ThreadContext(self, thread_id=0, core=main_core,
                                  team=None)

    def rng(self, name: str):
        """A deterministic RNG stream namespaced to this rank."""
        return self.cluster.streams.stream(f"rank{self.rank}/{name}")

    def fork(self, nthreads: int,
             worker: Callable[[ThreadContext], Generator],
             policy: Optional[BindPolicy] = None):
        """Generator: open a parallel region of ``nthreads`` workers.

        Charges the OpenMP fork cost, binds threads per ``policy`` (the
        cluster default when omitted), starts the workers, and returns the
        :class:`ThreadTeam`; callers later ``yield from team.join()``.
        """
        binding = self.cluster._binding(nthreads,
                                        policy or self.cluster.bind_policy)
        yield self.sim.sleep(self.cluster.omp_costs.fork_cost(nthreads))
        team = ThreadTeam(self, binding, worker,
                          omp_costs=self.cluster.omp_costs)
        self.obs.emit(TEAM_FORK, self.sim.now, self.rank, nthreads)
        return team

    def parallel(self, nthreads: int,
                 worker: Callable[[ThreadContext], Generator],
                 policy: Optional[BindPolicy] = None):
        """Generator: fork + join in one call; returns the worker results."""
        team = yield from self.fork(nthreads, worker, policy)
        yield from team.join()
        return team.results()

    def invalidate_cache(self):
        """Generator: run the cold-cache invalidation pass (§3.4).

        Flushes this rank's cache model and charges the cost of streaming
        the 8 MB scratch buffer, as the SMB-derived method does.
        """
        cost = self.proc.cache.invalidate()
        yield self.sim.sleep(cost)

    def elapse(self, seconds: float):
        """Generator: idle this rank's main thread for ``seconds``."""
        yield self.sim.sleep(seconds)


class Cluster:
    """A simulated cluster and its MPI world.

    Parameters
    ----------
    nranks:
        World size.
    spec / inter_node / intra_node / costs / omp_costs:
        Substrate parameter sets (Niagara-calibrated defaults).
    mode:
        MPI threading mode for every rank.
    placement:
        Rank→node placement; default one rank per node, matching the
        paper's pattern benchmarks.
    bind_policy:
        Default thread binding for parallel regions.
    seed:
        Master seed for all RNG streams.
    faults:
        Optional :class:`~repro.faults.FaultPlan`.  When present the
        cluster wires a :class:`~repro.faults.LinkFaults` decision
        engine into every NIC (drop/stall/degrade decisions drawn from
        the ``faults/rank{r}/link`` stream of the same seed scheme as
        everything else), switches every rank onto the reliable
        ACK/retransmit transport when the plan is lossy, and schedules
        any fail-stop.  ``None`` (the default) adds no work anywhere.
    """

    def __init__(self, nranks: int, *,
                 spec: MachineSpec = NIAGARA_NODE,
                 inter_node: NetworkParams = NIAGARA_EDR,
                 intra_node: NetworkParams = INTRA_NODE,
                 costs: MPICosts = DEFAULT_COSTS,
                 mode: ThreadingMode = ThreadingMode.MULTIPLE,
                 omp_costs: OpenMPCosts = DEFAULT_OPENMP_COSTS,
                 placement: Optional[Placement] = None,
                 bind_policy: BindPolicy = BindPolicy.COMPACT,
                 seed: int = 0,
                 faults: Optional[FaultPlan] = None):
        if nranks < 1:
            raise ConfigurationError(f"nranks must be >= 1, got {nranks}")
        validate_spec(spec)
        validate_params(inter_node)
        validate_params(intra_node)
        validate_costs(costs)
        if placement is None:
            placement = Placement.one_per_node(nranks)
        if placement.nranks != nranks:
            raise ConfigurationError(
                f"placement covers {placement.nranks} ranks, world has "
                f"{nranks}")
        self.nranks = nranks
        self.spec = spec
        self.costs = costs
        self.mode = mode
        self.omp_costs = omp_costs
        self.bind_policy = bind_policy
        self.sim = Simulator()
        self.obs = EventBus()
        self.streams = RandomStreams(seed)
        self.fabric = Fabric(placement, inter_node, intra_node)
        self.faults = faults
        self.fault_stats: Optional[FaultStats] = None
        link_faults: List[Optional[LinkFaults]] = [None] * nranks
        if faults is not None:
            if faults.fail_stop is not None and \
                    faults.fail_stop.rank >= nranks:
                raise ConfigurationError(
                    f"fail-stop rank {faults.fail_stop.rank} outside world "
                    f"of {nranks}")
            for rank, _ in faults.rank_slowdown:
                if rank >= nranks:
                    raise ConfigurationError(
                        f"slowdown rank {rank} outside world of {nranks}")
            self.fault_stats = FaultStats()
            link_faults = [
                LinkFaults(faults, r, self.sim, self.obs,
                           self.streams.stream(f"faults/rank{r}/link"),
                           self.fault_stats)
                for r in range(nranks)
            ]
        self.procs: List[MPIProcess] = [
            MPIProcess(self.sim, r, self.fabric, spec, costs, mode,
                       self.obs, self._route, link_faults=link_faults[r])
            for r in range(nranks)
        ]
        if faults is not None and faults.lossy:
            for proc in self.procs:
                proc.retry = ReliableTransport(
                    self.sim, proc.nic, proc.rank, faults.retry,
                    self.fault_stats, self.obs)
        if faults is not None and faults.fail_stop is not None:
            timer = self.sim.timeout(faults.fail_stop.time)
            timer.callbacks.append(
                lambda ev: self._fail_stop(faults.fail_stop.rank))
        self.contexts: List[RankContext] = [
            RankContext(self, r) for r in range(nranks)
        ]
        self._part_pending: Dict[Tuple[int, int, int, int],
                                 Dict[str, deque]] = {}
        self._dup_ids: Dict[Tuple[int, int], int] = {}
        self._next_comm_id = 1
        #: ``(nthreads, policy)`` -> ThreadBinding (pure, so shared).
        self._bindings: Dict[Tuple[int, BindPolicy], ThreadBinding] = {}
        #: Dynamic-correctness checker attached by
        #: :func:`repro.analysis.enable_checking`; ``None`` when disabled.
        self.checker: Optional[Any] = None

    # ------------------------------------------------------------------
    # plumbing used by the runtime
    # ------------------------------------------------------------------
    def _route(self, dst_rank: int, frame: Frame) -> None:
        dst = self.procs[dst_rank]
        if dst.failed:
            # Fail-stopped destination: the frame is black-holed.  The
            # sender's retry machinery (if any) times out and abandons.
            self.fault_stats.drops += 1
            self.obs.emit(FAULT_DROP, self.sim.now, frame.src_rank,
                          dst_rank, frame.kind.value, frame.seq,
                          frame.nbytes)
            return
        dst.deliver(frame)

    def _fail_stop(self, rank: int) -> None:
        """Fault-plan callback: kill ``rank`` at the scheduled time."""
        proc = self.procs[rank]
        proc.failed = True
        proc.nic.failed = True
        self.fault_stats.fail_stops += 1
        self.obs.emit(FAULT_FAILSTOP, self.sim.now, rank)

    def _register_partitioned(self, req, is_send: bool) -> None:
        """Init-time matching of partitioned halves, in posting order."""
        self.obs.emit(PART_INIT, self.sim.now, req.proc.rank,
                      "send" if is_send else "recv", req.peer_rank, req.tag,
                      req.nbytes, req.partitions, req)
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

    def _binding(self, nthreads: int, policy: BindPolicy) -> ThreadBinding:
        """:func:`~repro.machine.bind_threads` on this cluster's node,
        memoized (bindings are immutable, so teams can share one)."""
        binding = self._bindings.get((nthreads, policy))
        if binding is None:
            binding = bind_threads(nthreads, self.spec, policy)
            if len(self._bindings) < MEMO_CAP:
                self._bindings[nthreads, policy] = binding
        return binding

    def _dup_comm_id(self, base_id: int, nth: int) -> int:
        key = (base_id, nth)
        if key not in self._dup_ids:
            self._dup_ids[key] = self._next_comm_id
            self._next_comm_id += 1
        return self._dup_ids[key]

    # ------------------------------------------------------------------
    # running programs
    # ------------------------------------------------------------------
    def run(self, program: Callable[[RankContext], Generator],
            ranks: Optional[List[int]] = None,
            until: Optional[float] = None) -> List[Any]:
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
        self.sim.run(until=until)
        stuck = [p.name for p in procs if not p.triggered]
        if stuck:
            raise DeadlockError(
                f"programs never completed (likely unmatched communication "
                f"or missing start/wait): {', '.join(stuck)}")
        results = []
        for p in procs:
            if not p.ok:
                raise p.value
            results.append(p.value)
        return results

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now
