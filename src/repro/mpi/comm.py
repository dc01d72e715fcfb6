"""Communicator: the application-facing MPI handle of one rank.

A :class:`Communicator` is bound to one rank's :class:`MPIProcess` (as in a
real MPI program, where ``MPI_COMM_WORLD`` is a per-process handle onto
shared state).  All verbs are generators invoked with ``yield from`` by a
simulated thread, taking that thread's :class:`ThreadContext` as the first
argument so costs, locks and NUMA penalties land on the right actor.
The hottest verbs (``isend``, ``irecv``, ``barrier``) check their
arguments and return the engine's generator itself rather than wrapping
it, which saves one generator frame on every resume.

Verbs
-----
point-to-point
    ``send`` / ``recv`` (blocking), ``isend`` / ``irecv`` (nonblocking).
partitioned
    ``psend_init`` / ``precv_init`` — MPI 4.0 partitioned transfers; the
    once-only matching happens inside these calls through the cluster's
    registry.
collectives
    ``barrier``, ``allreduce``.
"""

from __future__ import annotations

import weakref
from typing import Any, Optional

from ..errors import MPIError
from ..partitioned import PartitionedRecvRequest, PartitionedSendRequest
from . import collectives as _coll
from .process import MPIProcess
from .request import waitall
from .status import Status

__all__ = ["Communicator"]


class Communicator:
    """One rank's handle on a communication context.

    Parameters
    ----------
    cluster:
        The owning :class:`~repro.mpi.cluster.Cluster` (supplies the
        partitioned-init registry); held weakly, since the cluster owns
        its ranks' communicators.
    proc:
        This rank's MPI engine.
    comm_id:
        Context id; messages never match across different ids.
    size:
        Number of ranks in the communicator (always the world size here —
        sub-communicators are future work, as in the paper's suite).
    """

    def __init__(self, cluster, proc: MPIProcess, comm_id: int, size: int):
        self._cluster = weakref.ref(cluster)
        self.proc = proc
        self.comm_id = comm_id
        self.size = size
        self._coll_seq = 0

    @property
    def cluster(self):
        """The owning :class:`~repro.mpi.cluster.Cluster`."""
        return self._cluster()

    @property
    def rank(self) -> int:
        """This process's rank."""
        return self.proc.rank

    @property
    def sim(self):
        """The simulation kernel."""
        return self.proc.sim

    def _check_peer(self, peer: int) -> None:
        if not (0 <= peer < self.size):
            raise MPIError(f"peer rank {peer} out of range [0, {self.size})")

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(self, tc, dest: int, tag: int, nbytes: int,
              payload: Any = None, bufkey: Optional[str] = None):
        """Generator: nonblocking send; returns a request."""
        self._check_peer(dest)
        return self.proc.isend(tc, self.comm_id, dest, tag, nbytes, payload,
                               bufkey)

    def irecv(self, tc, source: int, tag: int, nbytes: int,
              bufkey: Optional[str] = None):
        """Generator: nonblocking receive by exact source and tag; returns
        a request."""
        self._check_peer(source)
        return self.proc.irecv(tc, self.comm_id, source, tag, nbytes, bufkey)

    def send(self, tc, dest: int, tag: int, nbytes: int,
             payload: Any = None, bufkey: Optional[str] = None):
        """Generator: blocking send (isend + wait); returns the request."""
        req = yield from self.isend(tc, dest, tag, nbytes, payload, bufkey)
        yield from self.proc.blocking_wait(tc, req.wait())
        return req

    def recv(self, tc, source: int, tag: int, nbytes: int,
             bufkey: Optional[str] = None) -> Status:
        """Generator: blocking receive; returns the :class:`Status`."""
        req = yield from self.irecv(tc, source, tag, nbytes, bufkey)
        yield from self.proc.blocking_wait(tc, req.wait())
        return req.status

    def wait(self, tc, request):
        """Generator: blocking ``MPI_Wait`` on one request.

        Unlike yielding ``request.wait()`` directly, this counts the thread
        as spin-waiting inside the library, which under ``MULTIPLE``
        contends with the progress engine — the behaviour real
        multi-threaded MPI codes suffer from.
        """
        yield from self.proc.blocking_wait(tc, request.wait())
        return request

    def wait_all(self, tc, requests):
        """Generator: blocking ``MPI_Waitall``; see :meth:`wait`."""
        yield from self.proc.blocking_wait(
            tc, waitall(self.sim, list(requests)))
        return list(requests)

    # ------------------------------------------------------------------
    # partitioned point-to-point (MPI 4.0)
    # ------------------------------------------------------------------
    def psend_init(self, tc, dest: int, tag: int, nbytes: int,
                   partitions: int,
                   bufkey: Optional[str] = None) -> PartitionedSendRequest:
        """Generator: ``MPI_Psend_init``.

        Must be called from serial code (single thread per the standard);
        matching with the peer's ``precv_init`` happens here, through the
        cluster registry, in posting order.
        """
        self._check_peer(dest)
        req = PartitionedSendRequest(self.proc, self.comm_id, dest, tag,
                                     nbytes, partitions, bufkey)
        cost = (self.proc.costs.partitioned_setup
                + partitions * self.proc.costs.post_cost)
        yield from self.proc._mpi_entry(tc, cost)
        self.cluster._register_partitioned(req, is_send=True)
        return req

    def precv_init(self, tc, source: int, tag: int, nbytes: int,
                   partitions: int,
                   bufkey: Optional[str] = None) -> PartitionedRecvRequest:
        """Generator: ``MPI_Precv_init`` (see :meth:`psend_init`)."""
        self._check_peer(source)
        req = PartitionedRecvRequest(self.proc, self.comm_id, source, tag,
                                     nbytes, partitions, bufkey)
        cost = (self.proc.costs.partitioned_setup
                + partitions * self.proc.costs.post_cost)
        yield from self.proc._mpi_entry(tc, cost)
        self.cluster._register_partitioned(req, is_send=False)
        return req

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self, tc):
        """Generator: dissemination barrier."""
        return _coll.barrier(self, tc)

    def allreduce(self, tc, nbytes: int, value: float = 0.0, op=None):
        """Generator: allreduce; returns the reduced value everywhere."""
        result = yield from _coll.allreduce(self, tc, nbytes, value, op)
        return result
