"""Request objects for nonblocking and persistent operations.

A request wraps a completion :class:`~repro.sim.core.Event`.  Application
code yields ``req.wait()`` (or ``waitall([...])``) inside its simulated
process; ``req.test()`` is an instantaneous poll.

Persistent requests (``send_init``/``recv_init``) hold their arguments and
re-arm a fresh underlying operation on each ``start()`` — the semantics a
1-partition partitioned transfer degenerates to, which the paper uses as
its equivalence baseline.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..errors import RequestStateError
from ..sim import AllOf, Event, Simulator
from .status import Status

__all__ = ["Request", "SendRequest", "RecvRequest", "waitall"]


class Request:
    """Base class: a handle on one in-flight operation."""

    def __init__(self, sim: Simulator, kind: str):
        self.sim = sim
        self.kind = kind
        self._completion = Event(sim)
        self.status = Status()

    @property
    def complete(self) -> bool:
        """True once the operation finished."""
        return self._completion.triggered

    @property
    def completed_at(self) -> float:
        """Simulation time of completion (raises if not complete)."""
        if not self.complete:
            raise RequestStateError(f"{self.kind} request not complete")
        return self.status.completed_at

    def wait(self) -> Event:
        """The event to ``yield`` on for completion."""
        return self._completion

    def test(self) -> bool:
        """Instantaneous completion poll (``MPI_Test`` semantics)."""
        return self.complete

    # -- runtime side -----------------------------------------------------
    def _finish(self, now: float, source: int = -1, tag: int = -1,
                nbytes: int = 0, payload: Any = None) -> None:
        """Mark complete; called exactly once by the runtime."""
        if self.complete:
            raise RequestStateError(f"{self.kind} request completed twice")
        self.status.source = source
        self.status.tag = tag
        self.status.nbytes = nbytes
        self.status.payload = payload
        self.status.completed_at = now
        self._completion.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "complete" if self.complete else "pending"
        return f"<{type(self).__name__} {self.kind} {state}>"


class SendRequest(Request):
    """Handle on one nonblocking send."""

    def __init__(self, sim: Simulator, dest: int, tag: int, nbytes: int):
        super().__init__(sim, "send")
        self.dest = dest
        self.tag = tag
        self.nbytes = nbytes


class RecvRequest(Request):
    """Handle on one nonblocking receive."""

    def __init__(self, sim: Simulator, source: int, tag: int, nbytes: int):
        super().__init__(sim, "recv")
        self.source = source
        self.tag = tag
        self.nbytes = nbytes


def waitall(sim: Simulator, requests: Iterable[Request]) -> Event:
    """Event triggering when every request completes (``MPI_Waitall``)."""
    return AllOf(sim, [r.wait() for r in requests])
