"""Cluster fabric: placement of ranks on nodes and path selection.

The paper limits its point-to-point tests to a single Dragonfly+ wing, so
any two nodes are one switch apart; we model exactly that (``hops=1``
between distinct nodes) plus an intra-node shared-memory path for ranks
co-located on a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import ConfigurationError
from .model import INTRA_NODE, NIAGARA_EDR, NetworkParams

__all__ = ["Placement", "Fabric"]


@dataclass(frozen=True)
class Placement:
    """Mapping of MPI ranks to nodes.

    Attributes
    ----------
    nodes_of_rank:
        ``nodes_of_rank[r]`` is the node id hosting rank ``r``.
    """

    nodes_of_rank: Tuple[int, ...]

    @classmethod
    def round_robin(cls, nranks: int, nnodes: int) -> "Placement":
        """Cyclic placement: rank ``r`` on node ``r % nnodes``."""
        if nranks < 1 or nnodes < 1:
            raise ConfigurationError("nranks and nnodes must be >= 1")
        return cls(tuple(r % nnodes for r in range(nranks)))

    @classmethod
    def block(cls, nranks: int, ranks_per_node: int) -> "Placement":
        """Block placement: the first ``ranks_per_node`` ranks on node 0, etc."""
        if nranks < 1 or ranks_per_node < 1:
            raise ConfigurationError(
                "nranks and ranks_per_node must be >= 1")
        return cls(tuple(r // ranks_per_node for r in range(nranks)))

    @classmethod
    def one_per_node(cls, nranks: int) -> "Placement":
        """The paper's default for its pattern benchmarks."""
        return cls.block(nranks, 1)

    @property
    def nranks(self) -> int:
        """Number of placed ranks."""
        return len(self.nodes_of_rank)

    @property
    def nnodes(self) -> int:
        """Number of distinct nodes used."""
        return len(set(self.nodes_of_rank)) if self.nodes_of_rank else 0

    def node_of(self, rank: int) -> int:
        """Node hosting ``rank``."""
        return self.nodes_of_rank[rank]

    def colocated(self, a: int, b: int) -> bool:
        """True when both ranks share a node."""
        return self.node_of(a) == self.node_of(b)


class Fabric:
    """Path selection between ranks: inter-node EDR vs intra-node shm.

    Both per-pair answers are pure, so each is memoized per rank pair
    (one table per fabric, i.e. per cluster, bounded by the world size).

    Parameters
    ----------
    placement:
        Where each rank lives.
    inter_node / intra_node:
        Parameter sets for the two path types.
    """

    def __init__(self, placement: Placement,
                 inter_node: NetworkParams = NIAGARA_EDR,
                 intra_node: NetworkParams = INTRA_NODE):
        self.placement = placement
        self.inter_node = inter_node
        self.intra_node = intra_node
        self._params: Dict[Tuple[int, int], NetworkParams] = {}
        self._latency: Dict[Tuple[int, int], float] = {}

    def params_between(self, src_rank: int, dst_rank: int) -> NetworkParams:
        """The parameter set governing traffic from ``src`` to ``dst``."""
        params = self._params.get((src_rank, dst_rank))
        if params is None:
            params = (self.intra_node
                      if self.placement.colocated(src_rank, dst_rank)
                      else self.inter_node)
            self._params[src_rank, dst_rank] = params
        return params

    def hops_between(self, src_rank: int, dst_rank: int) -> int:
        """Switch count on the path (0 intra-node, 1 within the wing)."""
        return 0 if self.placement.colocated(src_rank, dst_rank) else 1

    def delivery_latency(self, src_rank: int, dst_rank: int) -> float:
        """One-way propagation latency between the two ranks."""
        latency = self._latency.get((src_rank, dst_rank))
        if latency is None:
            params = self.params_between(src_rank, dst_rank)
            latency = params.path_latency(
                self.hops_between(src_rank, dst_rank))
            self._latency[src_rank, dst_rank] = latency
        return latency
