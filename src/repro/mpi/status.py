"""Receive status, mirroring ``MPI_Status``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["Status"]


@dataclass(slots=True)
class Status:
    """Completion information attached to a finished receive.

    Attributes
    ----------
    source / tag:
        The actual envelope values (resolves wildcards).
    nbytes:
        Size of the received message (``MPI_Get_count`` analogue).
    payload:
        The transferred payload object, when the sender attached one; the
        timing simulation itself never requires payloads, but tests use them
        to verify matching semantics end-to-end.
    completed_at:
        Simulation time the receive completed.
    """

    source: int = -1
    tag: int = -1
    nbytes: int = 0
    payload: Optional[Any] = None
    completed_at: float = float("nan")
    #: True when the operation was cancelled rather than matched
    #: (``MPI_Test_cancelled`` analogue).
    cancelled: bool = False
