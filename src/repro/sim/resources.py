"""Shared-resource primitives for the simulation kernel.

These model contended hardware and software objects:

* :class:`Resource` — a counted resource with a FIFO wait queue (e.g. a NIC
  DMA engine, a CPU core slot).
* :class:`Mutex` — a single-holder lock that records contention statistics;
  used to model the MPI library's global lock under ``MPI_THREAD_MULTIPLE``.
* :class:`Store` — an unbounded FIFO message store (producer/consumer
  channel), used for progress-engine work queues.

All wait queues are strictly FIFO, so simulations remain deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Generator, List, Optional

from ..errors import SimulationError
from .core import Event, Simulator

__all__ = ["Resource", "Mutex", "Store", "MutexStats"]


class Resource:
    """A counted, FIFO-queued resource.

    ``request()`` returns an :class:`~repro.sim.core.Event` that triggers when
    a unit becomes available; the caller must later call ``release()``.

    Example
    -------
    >>> sim = Simulator()
    >>> nic = Resource(sim, capacity=1)
    >>> def user(sim, nic, hold):
    ...     req = nic.request()
    ...     yield req
    ...     yield sim.sleep(hold)
    ...     nic.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Units currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting."""
        return len(self._waiters)

    def request(self) -> Event:
        """Ask for one unit; the returned event triggers on acquisition."""
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
            granted = True
        else:
            self._waiters.append(ev)
            granted = False
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_resource_request(self, ev, granted)
        return ev

    def release(self) -> None:
        """Return one unit, waking the longest-waiting requester if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        handed: Optional[Event] = None
        if self._waiters:
            # Hand the unit directly to the next waiter (count unchanged).
            handed = self._waiters.popleft()
            handed.succeed(self)
        else:
            self._in_use -= 1
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_resource_release(self, handed)

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending request; returns False if already granted."""
        try:
            self._waiters.remove(event)
        except ValueError:
            return False
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_resource_cancel(self, event)
        return True


@dataclass
class MutexStats:
    """Aggregate contention statistics for a :class:`Mutex`.

    Attributes
    ----------
    acquisitions:
        Number of successful lock acquisitions.
    contended_acquisitions:
        Acquisitions that had to wait because the lock was held.
    total_wait_time:
        Summed simulated time spent waiting for the lock.
    total_hold_time:
        Summed simulated time the lock was held.
    max_queue_length:
        Longest observed wait queue.
    """

    acquisitions: int = 0
    contended_acquisitions: int = 0
    total_wait_time: float = 0.0
    total_hold_time: float = 0.0
    max_queue_length: int = 0
    _acquire_times: List[float] = field(default_factory=list, repr=False)

    @property
    def mean_wait_time(self) -> float:
        """Average waiting time per acquisition (0 when never acquired)."""
        if self.acquisitions == 0:
            return 0.0
        return self.total_wait_time / self.acquisitions

    @property
    def contention_ratio(self) -> float:
        """Fraction of acquisitions that found the lock held."""
        if self.acquisitions == 0:
            return 0.0
        return self.contended_acquisitions / self.acquisitions


class Mutex:
    """A single-holder lock with contention accounting.

    Models the coarse-grained lock most MPI implementations take around
    critical sections under ``MPI_THREAD_MULTIPLE``.  Use as::

        yield from mutex.acquire()
        yield sim.sleep(critical_section_cost)
        mutex.release()
    """

    def __init__(self, sim: Simulator, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._resource = Resource(sim, capacity=1, name=name)
        self.stats = MutexStats()
        self._held_since: Optional[float] = None

    @property
    def locked(self) -> bool:
        """True while some process holds the lock."""
        return self._resource.in_use > 0

    def acquire(self) -> Generator[Event, Any, None]:
        """Generator-style acquisition (``yield from mutex.acquire()``).

        An uncontended grant with no resource monitor installed skips the
        request event: it waits on the recycled ``sim.sleep(0.0)``, which
        takes the same sequence number and ring slot the request's
        ``succeed`` would have.
        """
        sim = self.sim
        start = sim.now
        resource = self._resource
        contended = resource._in_use > 0
        queue_len = len(resource._waiters) + (1 if contended else 0)
        if queue_len > self.stats.max_queue_length:
            self.stats.max_queue_length = queue_len
        if contended or sim.monitor is not None:
            yield resource.request()
        else:
            resource._in_use = 1
            yield sim.sleep(0.0, resource)
        self.stats.acquisitions += 1
        if contended:
            self.stats.contended_acquisitions += 1
        self.stats.total_wait_time += self.sim.now - start
        self._held_since = self.sim.now

    def release(self) -> None:
        """Release the lock, crediting hold time to the statistics."""
        if self._held_since is not None:
            self.stats.total_hold_time += self.sim.now - self._held_since
        self._held_since = None
        self._resource.release()


class Store:
    """An unbounded FIFO channel between producer and consumer processes.

    ``put()`` never blocks; ``get()`` returns an event that triggers when an
    item is available (immediately if the store is non-empty).
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that triggers with the next item.

        When an item is waiting the event is a recycled
        :meth:`~repro.sim.core.Simulator.sleep` of zero delay (same
        sequence number and ring slot as a fresh event's ``succeed``), so
        callers must yield it at once, as ``item = yield store.get()``.
        """
        if self._items:
            return self.sim.sleep(0.0, self._items.popleft())
        ev = Event(self.sim)
        self._getters.append(ev)
        return ev
