"""Persistent point-to-point requests (``MPI_Send_init``/``MPI_Recv_init``).

A persistent request freezes the envelope and buffer of a point-to-point
operation so it can be restarted cheaply each iteration.  The paper uses
persistent point-to-point as the conceptual 1-partition baseline: a
partitioned transfer with one partition *is* a persistent send/receive
(§3.1.1).
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import RequestStateError
from ..sim import Event
from .request import Request

__all__ = ["PersistentSend", "PersistentRecv"]


class _PersistentBase:
    """Stored arguments plus the currently armed underlying request."""

    def __init__(self, comm, peer: int, tag: int, nbytes: int,
                 bufkey: Optional[str]):
        self.comm = comm
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.bufkey = bufkey
        self.current: Optional[Request] = None
        self.epoch = 0

    @property
    def active(self) -> bool:
        """True between ``start`` and the completion of the armed request."""
        return self.current is not None and not self.current.complete

    def _pre_start(self) -> None:
        if self.active:
            raise RequestStateError(
                "start() on an active persistent request (wait first)")
        self.epoch += 1

    def wait(self) -> Event:
        """Event completing the current epoch's operation."""
        if self.current is None:
            raise RequestStateError("wait() before start()")
        return self.current.wait()

    def test(self) -> bool:
        """Instantaneous poll of the current epoch's operation."""
        return self.current is not None and self.current.complete


class PersistentSend(_PersistentBase):
    """Persistent send handle; ``start`` re-issues the underlying isend."""

    def __init__(self, comm, dest: int, tag: int, nbytes: int,
                 payload: Any = None, bufkey: Optional[str] = None):
        super().__init__(comm, dest, tag, nbytes, bufkey)
        self.payload = payload

    def start(self, tc):
        """Generator: arm one send epoch; returns the underlying request."""
        self._pre_start()
        self.current = yield from self.comm.isend(
            tc, self.peer, self.tag, self.nbytes, payload=self.payload,
            bufkey=self.bufkey)
        return self.current


class PersistentRecv(_PersistentBase):
    """Persistent receive handle; ``start`` re-posts the underlying irecv."""

    def start(self, tc):
        """Generator: arm one receive epoch; returns the underlying request."""
        self._pre_start()
        self.current = yield from self.comm.irecv(
            tc, self.peer, self.tag, self.nbytes, bufkey=self.bufkey)
        return self.current

    @property
    def status(self):
        """Completion status of the last finished epoch."""
        if self.current is None or not self.current.complete:
            raise RequestStateError("status before completion")
        return self.current.status
