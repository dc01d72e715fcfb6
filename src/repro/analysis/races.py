"""Per-partition happens-before tracking for partitioned transfers.

The MPI 4.0 partitioned contract is a small per-epoch state machine: a
send partition may be written, then marked ready exactly once, then must
not be touched until ``wait``; a receive partition may only be read after
it has arrived.  The runtime itself raises on every misuse of the state
machine (double ``pready``, out-of-range partitions, calls outside an
epoch); what it cannot see is an application touching a buffer at the
wrong time.  :class:`PartitionTracker` records, per partitioned request,
just enough of each epoch — when partitions were readied or arrived, and
whether the epoch is still open — to report those buffer races
(``PART004``/``PART005``) and, at finalize, leaked requests (``FIN001``).

Keeping the tracker free of simulator imports makes it unit-testable and
guarantees the validating layer can never perturb the schedule it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

__all__ = ["PartitionState", "PartitionTracker"]


@dataclass
class PartitionState:
    """Shadow state of one partitioned request (one side of a transfer).

    Attributes
    ----------
    side:
        ``"send"`` or ``"recv"``.
    active / epoch:
        ``active`` between a ``start()`` and the next ``wait()``;
        ``epoch`` counts the ``start()`` calls seen.
    ready / arrived:
        Per-partition event times of this epoch (``pready`` on the send
        side, actual arrival on the receive side).
    """

    side: str
    active: bool = False
    epoch: int = 0
    ready: Dict[int, float] = field(default_factory=dict)
    arrived: Dict[int, float] = field(default_factory=dict)

    def describe(self) -> str:
        """Short human-readable identity used in messages."""
        return f"partitioned {self.side} request"

    def start(self) -> None:
        """A ``start()`` call: arm a fresh epoch."""
        self.active = True
        self.epoch += 1
        self.ready.clear()
        self.arrived.clear()

    def write_race(self, partition: int, now: float) -> Optional[str]:
        """The ``PART004`` message for a send-buffer write, if it races."""
        if self.active and partition in self.ready:
            return (f"buffer write to partition {partition} at t={now:.6f}s "
                    f"after pready at t={self.ready[partition]:.6f}s in "
                    f"epoch {self.epoch} (write-after-ready race)")
        return None

    def read_race(self, partition: int, now: float) -> Optional[str]:
        """The ``PART005`` message for a receive-buffer read, if it races."""
        if self.active and partition not in self.arrived:
            return (f"buffer read of partition {partition} at t={now:.6f}s "
                    f"before it arrived in epoch {self.epoch} "
                    f"(read-before-arrival race)")
        return None


class PartitionTracker:
    """Happens-before checker over every partitioned request in a run.

    The :class:`~repro.analysis.checker.Checker` folds each lifecycle
    event into the state :meth:`ensure` returns for its request.
    Requests are identified by object identity; states persist across
    epochs so leak detection can run at finalize.
    """

    def __init__(self) -> None:
        self._states: Dict[int, Tuple[object, PartitionState]] = {}

    # -- bookkeeping ----------------------------------------------------
    def ensure(self, req, side: str) -> PartitionState:
        """Return (creating on first sight) the shadow state of ``req``."""
        entry = self._states.get(id(req))
        if entry is None:
            entry = (req, PartitionState(side=side))
            self._states[id(req)] = entry
        return entry[1]

    # -- finalize --------------------------------------------------------
    def leaks(self) -> Iterator[Tuple[object, PartitionState]]:
        """Requests whose last epoch was started but never waited."""
        for req, state in self._states.values():
            if state.active:
                yield req, state
