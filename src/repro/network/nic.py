"""Network-interface model: a serializing injection engine per rank.

Each rank owns one NIC.  Message injections queue FIFO on the NIC's
transmit engine; each occupies the engine for ``injection_gap + wire_time``
(LogGP's ``g`` plus serialization).  This is the mechanism behind two of the
paper's observations:

* many small partition messages serialize on the gap, producing the ~n×
  small-message overhead of Fig. 4;
* once transfers outlast the noise-induced stagger between ``MPI_Pready``
  calls, the *last* partition queues behind earlier ones, producing the
  perceived-bandwidth decline at large sizes in Fig. 5.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Optional

from ..obs import EventBus
from ..obs.kinds import NIC_TX_DONE, NIC_TX_START
from ..sim import Event, Simulator

__all__ = ["Transmission", "NIC", "NICStats"]


@dataclass(slots=True)
class Transmission:
    """One message handed to a NIC for injection.

    Attributes
    ----------
    dst_rank:
        Destination rank (routing is resolved by the cluster's deliver hook).
    nbytes:
        Payload size used for accounting.
    wire_time:
        Pre-computed serialization time on this path.
    gap:
        Minimum inter-message injection spacing (LogGP ``g``) charged to the
        transmit engine before serialization starts.
    latency:
        Pre-computed one-way propagation latency on this path.
    payload:
        Opaque object handed to the destination's inbox (protocol frames).
    injected:
        Event triggered when the NIC finishes injecting (sender-side
        completion point for eager sends).
    """

    dst_rank: int
    nbytes: int
    wire_time: float
    latency: float
    payload: Any
    gap: float = 0.0
    injected: Optional[Event] = None


@dataclass
class NICStats:
    """Aggregate NIC accounting, exposed for tests and reports."""

    messages: int = 0
    bytes: int = 0
    busy_time: float = 0.0
    max_queue: int = 0


class NIC:
    """FIFO transmit engine for one rank.

    The engine is a callback state machine, not a simulated process: it
    holds at most one transmission in flight (:attr:`_current`) and a FIFO
    backlog behind it.  Each transmission walks through the same kernel
    events a generator worker would yield, in the same order: a zero-delay
    wake, an optional fault stall, the ``gap + wire_time`` service sleep,
    then the ``injected`` trigger and the delivery timeout.

    Parameters
    ----------
    sim:
        The simulation kernel.
    rank:
        Owning rank (for tracing).
    deliver:
        Callback ``deliver(dst_rank, payload)`` invoked at the destination's
        side when a message finishes propagating.
    obs:
        Instrumentation bus ``nic.tx_*`` events go to; a private empty bus
        when omitted, so standalone NICs stay valid and emission free.
    faults:
        Optional :class:`~repro.faults.LinkFaults` decision engine.  When
        ``None`` (the default) the transmit engine pays exactly one ``is
        not None`` test per step and nothing else — the budget the
        ``faults_off_overhead`` kernel in ``scripts/bench_guard.py``
        enforces.
    """

    def __init__(self, sim: Simulator, rank: int,
                 deliver: Callable[[int, Any], None],
                 obs: Optional[EventBus] = None,
                 faults=None):
        self.sim = sim
        self.rank = rank
        self.deliver = deliver
        self.obs = obs if obs is not None else EventBus()
        self.faults = faults
        #: Fail-stop flag: a failed NIC silently discards everything it
        #: is asked to inject (the rank is dead, not slow).
        self.failed = False
        self.stats = NICStats()
        #: Transmissions waiting behind the one in flight.
        self._backlog: Deque[Transmission] = deque()
        #: The transmission the engine is serving (None when idle).
        self._current: Optional[Transmission] = None
        #: Service start and (possibly degraded) latency of ``_current``.
        self._start = 0.0
        self._latency = 0.0

    @property
    def queue_length(self) -> int:
        """Messages waiting for the transmit engine."""
        return len(self._backlog)

    def enqueue(self, tx: Transmission) -> Transmission:
        """Hand a message to the transmit engine (never blocks the caller)."""
        if tx.injected is None:
            tx.injected = Event(self.sim)
        if self._current is None:
            self._current = tx
            self._wake()
        else:
            backlog = self._backlog
            backlog.append(tx)
            if len(backlog) > self.stats.max_queue:
                self.stats.max_queue = len(backlog)
        return tx

    # -- the transmit engine ----------------------------------------------
    def _wake(self) -> None:
        """Schedule the zero-delay wake that picks up ``_current``.

        Without faults the wake has nothing to decide, so it goes straight
        to :meth:`_inject`.
        """
        self.sim.call_in(0.0, self._inject if self.faults is None
                         else self._on_wake)

    def _on_wake(self, _event) -> None:
        """Under a fault plan, ``_current`` is dropped, stalled or
        injected."""
        faults = self.faults
        if self.failed:
            # Fail-stopped rank: nothing leaves the NIC.  The injected
            # event never fires, so no completion hooks or retry timers
            # run for this frame.
            faults.note_drop(self._current)
            self._next()
            return
        stall = faults.stall_delay(self.sim.now)
        if stall > 0.0:
            self.sim.call_in(stall, self._inject)
            return
        self._inject(None)

    def _inject(self, _event) -> None:
        """Start serializing ``_current`` onto the wire."""
        tx = self._current
        now = self.sim.now
        wire_time = tx.wire_time
        latency = tx.latency
        if self.faults is not None:
            wire_time, latency = self.faults.degraded(
                now, tx.dst_rank, wire_time, latency)
        self._start = now
        self._latency = latency
        self.obs.emit(NIC_TX_START, now, self.rank, tx.dst_rank, tx.nbytes)
        self.sim.call_in(tx.gap + wire_time, self._on_injected)

    def _on_injected(self, _event) -> None:
        """``_current`` left the NIC: complete it and serve the next."""
        tx = self._current
        now = self.sim.now
        stats = self.stats
        stats.messages += 1
        stats.bytes += tx.nbytes
        stats.busy_time += now - self._start
        self.obs.emit(NIC_TX_DONE, now, self.rank, tx.dst_rank, tx.nbytes)
        tx.injected.succeed(now)
        faults = self.faults
        if faults is None or not faults.drop(tx):
            # (A dropped frame is eaten by the fabric; retransmission
            # recovers it.)
            self.sim.call_in(self._latency, self._on_delivered, tx)
        self._next()

    def _on_delivered(self, event) -> None:
        tx = event.value
        self.deliver(tx.dst_rank, tx.payload)

    def _next(self) -> None:
        """Wake for the next backlogged transmission, or go idle."""
        if self._backlog:
            self._current = self._backlog.popleft()
            self._wake()
        else:
            self._current = None
