"""Tag matching: posted-receive and unexpected-message queues.

MPI requires that messages between a (source, destination) pair on one
communicator match receives in posting order.  Every program here receives
by exact source and tag, so a match compares ``(source, tag, comm_id)`` for
equality.  Most implementations keep two linear lists — the *posted receive
queue* and the *unexpected message queue* — and the cost of walking them
under multi-threading is one of the documented pain points partitioned
communication sidesteps (matching happens once at init; see the paper's
§2.1 and Dosanjh et al.'s tail-queues work).

The engine therefore reports *how many elements were scanned* for every
match attempt so the runtime can charge ``match_cost`` per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

__all__ = ["Envelope", "PostedRecv", "UnexpectedMessage", "MatchingEngine",
           "MatchingStats"]


@dataclass(frozen=True)
class Envelope:
    """Message envelope used for matching: (source, tag, communicator)."""

    source: int
    tag: int
    comm_id: int


@dataclass(slots=True)
class PostedRecv:
    """One entry of the posted-receive queue."""

    request: Any
    source: int
    tag: int
    comm_id: int
    seq: int


@dataclass(slots=True)
class UnexpectedMessage:
    """One entry of the unexpected-message queue (an arrived frame)."""

    frame: Any
    envelope: Envelope
    arrived_at: float
    seq: int


@dataclass
class MatchingStats:
    """Aggregate accounting, exposed for tests and the reports."""

    posted_matches: int = 0
    unexpected_matches: int = 0
    elements_scanned: int = 0
    max_posted_depth: int = 0
    max_unexpected_depth: int = 0


class MatchingEngine:
    """The two matching queues of one rank, with scan-cost accounting."""

    def __init__(self) -> None:
        self._posted: List[PostedRecv] = []
        self._unexpected: List[UnexpectedMessage] = []
        self._seq = 0
        self.stats = MatchingStats()

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- receive side ------------------------------------------------------
    def find_unexpected(self, source: int, tag: int,
                        comm_id: int) -> Tuple[Optional[UnexpectedMessage], int]:
        """Search the unexpected queue for a frame matching a new receive.

        Returns ``(entry_or_None, elements_scanned)``; on a hit the entry is
        removed.  FIFO: the *earliest arrived* matching frame wins, which
        preserves MPI's non-overtaking guarantee.
        """
        scanned = 0
        for i, entry in enumerate(self._unexpected):
            scanned += 1
            env = entry.envelope
            if (env.source == source and env.tag == tag
                    and env.comm_id == comm_id):
                self._unexpected.pop(i)
                self.stats.unexpected_matches += 1
                self.stats.elements_scanned += scanned
                return entry, scanned
        self.stats.elements_scanned += scanned
        return None, scanned

    def post_recv(self, request: Any, source: int, tag: int,
                  comm_id: int) -> None:
        """Append a receive to the posted queue (no match was found)."""
        self._posted.append(PostedRecv(request=request, source=source,
                                       tag=tag, comm_id=comm_id,
                                       seq=self._next_seq()))
        if len(self._posted) > self.stats.max_posted_depth:
            self.stats.max_posted_depth = len(self._posted)

    # -- arrival side -------------------------------------------------------
    def match_arrival(self, envelope: Envelope) -> Tuple[Optional[PostedRecv], int]:
        """Match an arriving frame against the posted queue.

        Returns ``(entry_or_None, elements_scanned)``; on a hit the entry is
        removed.  FIFO over posting order.
        """
        source, tag, comm_id = envelope.source, envelope.tag, envelope.comm_id
        scanned = 0
        for i, entry in enumerate(self._posted):
            scanned += 1
            if (entry.source == source and entry.tag == tag
                    and entry.comm_id == comm_id):
                self._posted.pop(i)
                self.stats.posted_matches += 1
                self.stats.elements_scanned += scanned
                return entry, scanned
        self.stats.elements_scanned += scanned
        return None, scanned

    def store_unexpected(self, frame: Any, envelope: Envelope,
                         now: float) -> UnexpectedMessage:
        """Queue an arriving frame that matched no posted receive."""
        entry = UnexpectedMessage(frame=frame, envelope=envelope,
                                  arrived_at=now, seq=self._next_seq())
        self._unexpected.append(entry)
        if len(self._unexpected) > self.stats.max_unexpected_depth:
            self.stats.max_unexpected_depth = len(self._unexpected)
        return entry
