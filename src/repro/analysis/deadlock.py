"""Deadlock detection over simulated resources.

:class:`ResourceMonitor` plugs into ``Simulator.monitor`` (see
:mod:`repro.sim.resources`) and keeps, for every
:class:`~repro.sim.resources.Resource` and :class:`~repro.sim.resources.
Mutex`, which simulated processes currently hold units and which are
queued waiting.  From that bookkeeping :meth:`ResourceMonitor.
wait_for_graph` builds the classic wait-for graph — an edge per *waiter →
holder* pair — and :class:`WaitForGraph.find_cycle` runs a depth-first
search for a cycle, which is exactly a resource deadlock.

The monitor is passive: it never creates events or touches the queue, so
an instrumented simulation produces a bit-identical schedule.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ResourceMonitor", "WaitForGraph"]


class WaitForGraph:
    """A directed graph of ``waiter → holder`` process dependencies.

    Nodes are arbitrary hashable objects (simulated processes); each edge
    is labelled with the resource that induces it, so a detected cycle can
    be reported as ``procA -(lockB)-> procB -(lockA)-> procA``.
    """

    def __init__(self) -> None:
        self._edges: Dict[Any, List[Tuple[Any, Any]]] = {}

    def add_edge(self, waiter: Any, holder: Any, resource: Any) -> None:
        """Record that ``waiter`` is blocked on ``resource`` held by
        ``holder``."""
        self._edges.setdefault(waiter, []).append((holder, resource))
        self._edges.setdefault(holder, [])

    @property
    def edge_count(self) -> int:
        """Total number of wait-for edges."""
        return sum(len(v) for v in self._edges.values())

    def find_cycle(self) -> Optional[List[Tuple[Any, Any]]]:
        """Return one deadlock cycle, or None if the graph is acyclic.

        The cycle is a list of ``(process, resource)`` pairs: each process
        waits on its resource, which is held by the next process in the
        list (wrapping around).
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[Any, int] = {node: WHITE for node in self._edges}
        for root in self._edges:
            if color[root] != WHITE:
                continue
            # Iterative DFS keeping the gray path for cycle extraction.
            path: List[Tuple[Any, Any]] = []
            stack: List[Tuple[Any, int]] = [(root, 0)]
            color[root] = GRAY
            while stack:
                node, idx = stack[-1]
                edges = self._edges[node]
                if idx >= len(edges):
                    color[node] = BLACK
                    stack.pop()
                    if path:
                        path.pop()
                    continue
                stack[-1] = (node, idx + 1)
                holder, resource = edges[idx]
                if color.get(holder, WHITE) == GRAY:
                    # Found a back edge: slice the gray path into a cycle.
                    path.append((node, resource))
                    start = next(i for i, (p, _r) in enumerate(path)
                                 if p is holder)
                    return path[start:]
                if color.get(holder, WHITE) == WHITE:
                    color[holder] = GRAY
                    path.append((node, resource))
                    stack.append((holder, 0))
        return None

    @staticmethod
    def describe_cycle(cycle: List[Tuple[Any, Any]]) -> str:
        """Render a cycle as ``a -(r1)-> b -(r2)-> a``."""
        def name(obj: Any) -> str:
            label = getattr(obj, "name", "") or repr(obj)
            return str(label)

        parts = [f"{name(proc)} -({name(res)})->" for proc, res in cycle]
        return " ".join(parts + [name(cycle[0][0])])


class ResourceMonitor:
    """Passive observer of resource holders and waiters in one simulator.

    Installed as ``sim.monitor`` by :func:`repro.analysis.enable_checking`;
    receives the three hooks below from
    :class:`~repro.sim.resources.Resource`.
    """

    def __init__(self) -> None:
        #: resource -> processes currently holding a unit (grant order).
        self.holders: Dict[Any, List[Any]] = {}
        #: pending request event -> (resource, requesting process).
        self.waiting: Dict[Any, Tuple[Any, Any]] = {}

    # -- hooks called from repro.sim.resources ---------------------------
    def on_resource_request(self, resource: Any, event: Any,
                            granted: bool) -> None:
        """A process requested a unit (``granted`` = no queueing needed)."""
        proc = resource.sim.active_process
        if proc is None:
            return  # request issued from a callback; nothing to attribute
        if granted:
            self.holders.setdefault(resource, []).append(proc)
        else:
            self.waiting[event] = (resource, proc)

    def on_resource_release(self, resource: Any, handed: Any) -> None:
        """A unit was released; ``handed`` is the waiter event granted."""
        procs = self.holders.get(resource, [])
        active = resource.sim.active_process
        if active in procs:
            procs.remove(active)
        elif procs:
            procs.pop(0)
        if handed is not None:
            entry = self.waiting.pop(handed, None)
            if entry is not None:
                self.holders.setdefault(resource, []).append(entry[1])

    # -- analysis --------------------------------------------------------
    def wait_for_graph(self) -> WaitForGraph:
        """Build the wait-for graph from the current holder/waiter state.

        Only waiters whose process is still alive contribute edges, so a
        drained-queue post-mortem sees exactly the stuck processes.
        """
        graph = WaitForGraph()
        for _event, (resource, waiter) in self.waiting.items():
            if not getattr(waiter, "is_alive", True):
                continue
            for holder in self.holders.get(resource, []):
                graph.add_edge(waiter, holder, resource)
        return graph

    def find_deadlock(self) -> Optional[str]:
        """Description of one wait-for cycle, or None if none exists."""
        cycle = self.wait_for_graph().find_cycle()
        if cycle is None:
            return None
        return WaitForGraph.describe_cycle(cycle)
