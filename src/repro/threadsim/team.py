"""Simulated thread teams: contexts, workers, and fork/join.

A :class:`ThreadTeam` is the simulated analogue of an OpenMP parallel
region: each member runs a caller-supplied generator (the *worker*) as its
own kernel process, bound to a physical core chosen by the binding policy.
The team records when its last worker finished — the "thread join" moment
that anchors the paper's availability and early-bird metrics.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from ..errors import SimulationError
from ..machine import ThreadBinding, scaled_compute_time
from ..obs.kinds import TEAM_JOIN, THREAD_COMPUTED
from ..sim import AllOf, Process, Simulator
from .openmp import DEFAULT_OPENMP_COSTS, OpenMPCosts

__all__ = ["ThreadContext", "ThreadTeam"]


class ThreadContext:
    """Identity of one simulated thread: who am I, where do I run.

    Every MPI verb takes the calling thread's context so threading-mode
    rules, the library lock, and NUMA injection penalties land on the right
    actor.  ``thread_id`` 0 with ``team=None`` denotes a rank's main thread.

    The context copies what its thread reads from the rank context and
    the team at construction and keeps neither: a rank context owns its
    main thread's context and a team owns its members', so a reference
    back would make each pair a reference cycle.
    """

    def __init__(self, rank_ctx: Any, thread_id: int, core: int,
                 team: Optional["ThreadTeam"] = None):
        #: The kernel, instrumentation bus and node this thread runs on.
        self.sim: Simulator = rank_ctx.sim
        self.obs = rank_ctx.obs
        self.spec = rank_ctx.spec
        #: The MPI rank this thread belongs to.
        self.rank: int = rank_ctx.rank
        self.thread_id = thread_id
        self.core = core
        #: How many team threads time-share this thread's core.
        self.share: int = (1 if team is None
                           else team.binding.shares[thread_id])

    def compute(self, seconds: float) -> Generator:
        """Generator: burn ``seconds`` of nominal CPU work on this thread.

        The wall-clock time is scaled for core oversubscription (time
        slicing plus context switches); callers add noise *before* calling,
        by inflating ``seconds`` with a sample from a noise model.
        """
        wall = scaled_compute_time(seconds, self.share, self.spec)
        sim = self.sim
        if wall > 0:
            yield sim.sleep(wall)
        self.obs.emit(THREAD_COMPUTED, sim.now, self.rank, self.thread_id,
                      seconds, wall)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ThreadContext rank={self.rank} tid={self.thread_id} "
                f"core={self.core}>")


class ThreadTeam:
    """One parallel region: ``nthreads`` workers running concurrently.

    Created by :meth:`repro.mpi.cluster.RankContext.fork`; the workers start
    immediately.  ``join`` (a generator) blocks the caller until every
    worker returns, charges the implicit-barrier cost, and records
    :attr:`joined_at`.
    """

    def __init__(self, rank_ctx: Any, binding: ThreadBinding,
                 worker: Callable[[ThreadContext], Generator],
                 omp_costs: OpenMPCosts = DEFAULT_OPENMP_COSTS,
                 name: str = "team"):
        self.rank_ctx = rank_ctx
        self.binding = binding
        self.omp_costs = omp_costs
        self.name = name
        self.contexts: List[ThreadContext] = []
        self.processes: List[Process] = []
        #: Simulation time the join barrier completed (None until joined).
        self.joined_at: Optional[float] = None
        sim = rank_ctx.sim
        for tid in range(binding.nthreads):
            tc = ThreadContext(rank_ctx, tid, binding.core_of(tid), team=self)
            self.contexts.append(tc)
            proc = sim.process(worker(tc),
                               name=f"r{rank_ctx.rank}.{name}.t{tid}")
            self.processes.append(proc)

    @property
    def nthreads(self) -> int:
        """Team size."""
        return self.binding.nthreads

    def join(self) -> Generator:
        """Generator: wait for all workers, then pay the join barrier.

        Worker failures propagate to the joining caller.  Returns the join
        completion time.
        """
        if self.joined_at is not None:
            raise SimulationError(f"team {self.name} joined twice")
        sim = self.rank_ctx.sim
        yield AllOf(sim, [p for p in self.processes])
        yield sim.sleep(self.omp_costs.join_cost(self.nthreads))
        self.joined_at = sim.now
        self.rank_ctx.obs.emit(TEAM_JOIN, sim.now, self.rank_ctx.rank,
                               self.name, self.nthreads)
        return self.joined_at

    def results(self) -> List[Any]:
        """Return values of all workers (raises if any worker failed)."""
        out = []
        for p in self.processes:
            if not p.triggered:
                raise SimulationError(
                    f"worker {p.name} has not finished; join the team first")
            if not p.ok:
                raise p.value
            out.append(p.value)
        return out
