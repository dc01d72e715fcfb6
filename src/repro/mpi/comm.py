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
    ``send`` / ``recv`` (blocking), ``isend`` / ``irecv`` (nonblocking),
    ``send_init`` / ``recv_init`` (persistent).
partitioned
    ``psend_init`` / ``precv_init`` — MPI 4.0 partitioned transfers; the
    once-only matching happens inside these calls through the cluster's
    registry.
collectives
    ``barrier``, ``bcast``, ``allreduce``.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import MPIError
from ..partitioned import (IMPL_MPIPCL, PartitionedRecvRequest,
                           PartitionedSendRequest)
from . import collectives as _coll
from .constants import ANY_SOURCE, ANY_TAG
from .persistent import PersistentRecv, PersistentSend
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
        partitioned-init registry and communicator-id allocation).
    proc:
        This rank's MPI engine.
    comm_id:
        Context id; messages never match across different ids.
    size:
        Number of ranks in the communicator (always the world size here —
        sub-communicators are future work, as in the paper's suite).
    """

    def __init__(self, cluster, proc: MPIProcess, comm_id: int, size: int):
        self.cluster = cluster
        self.proc = proc
        self.comm_id = comm_id
        self.size = size
        self._ndups = 0
        self._coll_seq = 0

    @property
    def rank(self) -> int:
        """This process's rank."""
        return self.proc.rank

    @property
    def sim(self):
        """The simulation kernel."""
        return self.proc.sim

    def _check_peer(self, peer: int, wildcard_ok: bool = False) -> None:
        if wildcard_ok and peer == ANY_SOURCE:
            return
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
        """Generator: nonblocking receive (wildcards allowed); returns a
        request."""
        self._check_peer(source, wildcard_ok=True)
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

    def cancel(self, tc, request):
        """Generator: ``MPI_Cancel`` a pending receive; returns True when
        the receive was still unmatched and has been withdrawn."""
        result = yield from self.proc.cancel_recv(tc, request)
        return result

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
    # persistent point-to-point
    # ------------------------------------------------------------------
    def send_init(self, tc, dest: int, tag: int, nbytes: int,
                  payload: Any = None,
                  bufkey: Optional[str] = None) -> PersistentSend:
        """Generator: create a persistent send handle (``MPI_Send_init``)."""
        self._check_peer(dest)
        yield from self.proc._mpi_entry(tc, self.proc.costs.call_overhead)
        return PersistentSend(self, dest, tag, nbytes, payload, bufkey)

    def recv_init(self, tc, source: int, tag: int, nbytes: int,
                  bufkey: Optional[str] = None) -> PersistentRecv:
        """Generator: create a persistent receive handle."""
        self._check_peer(source, wildcard_ok=True)
        yield from self.proc._mpi_entry(tc, self.proc.costs.call_overhead)
        return PersistentRecv(self, source, tag, nbytes, bufkey)

    # ------------------------------------------------------------------
    # partitioned point-to-point (MPI 4.0)
    # ------------------------------------------------------------------
    def psend_init(self, tc, dest: int, tag: int, nbytes: int,
                   partitions: int, impl: str = IMPL_MPIPCL,
                   bufkey: Optional[str] = None) -> PartitionedSendRequest:
        """Generator: ``MPI_Psend_init``.

        Must be called from serial code (single thread per the standard);
        matching with the peer's ``precv_init`` happens here, through the
        cluster registry, in posting order — no wildcards.
        """
        self._check_peer(dest)
        if tag in (ANY_TAG,):
            raise MPIError("partitioned communication forbids wildcards")
        req = PartitionedSendRequest(self.proc, self.comm_id, dest, tag,
                                     nbytes, partitions, impl, bufkey)
        cost = (self.proc.costs.partitioned_setup
                + partitions * self.proc.costs.post_cost)
        yield from self.proc._mpi_entry(tc, cost)
        self.cluster._register_partitioned(req, is_send=True)
        return req

    def precv_init(self, tc, source: int, tag: int, nbytes: int,
                   partitions: int, impl: str = IMPL_MPIPCL,
                   bufkey: Optional[str] = None) -> PartitionedRecvRequest:
        """Generator: ``MPI_Precv_init`` (see :meth:`psend_init`)."""
        self._check_peer(source)
        if tag in (ANY_TAG,):
            raise MPIError("partitioned communication forbids wildcards")
        req = PartitionedRecvRequest(self.proc, self.comm_id, source, tag,
                                     nbytes, partitions, impl, bufkey)
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

    def bcast(self, tc, root: int, nbytes: int, payload: Any = None):
        """Generator: binomial broadcast; returns the payload everywhere."""
        result = yield from _coll.bcast(self, tc, root, nbytes, payload)
        return result

    def allreduce(self, tc, nbytes: int, value: float = 0.0, op=None):
        """Generator: allreduce; returns the reduced value everywhere."""
        result = yield from _coll.allreduce(self, tc, nbytes, value, op)
        return result

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------
    def dup(self) -> "Communicator":
        """Duplicate this communicator into a fresh matching context.

        Collective: every rank must dup the same communicator in the same
        order, which is what makes the derived ids agree across ranks.
        """
        self._ndups += 1
        new_id = self.cluster._dup_comm_id(self.comm_id, self._ndups)
        return Communicator(self.cluster, self.proc, new_id, self.size)
