"""Discrete-event simulation kernel.

A small, deterministic, generator-coroutine event loop in the style of SimPy,
purpose-built for simulating multi-threaded MPI programs in *virtual time*.
Simulated entities (threads, NICs, progress engines) are :class:`Process`
objects wrapping Python generators.  A process advances by ``yield``-ing
:class:`Event` objects; the kernel resumes it when the event triggers.

Determinism
-----------
Two runs with the same seeds produce bit-identical schedules.  The event
queue breaks time ties with a monotonically increasing sequence number, so
insertion order is the tie-break and no ordering ever depends on hash
randomization or object identity.

Hot-path anatomy
----------------
Three coordinated fast paths keep per-event cost low without changing any
observable ordering (the instrumentation digests of
:mod:`repro.obs` are bit-identical with and without them):

* **Immediate-event ring** — events scheduled at the current time (every
  :meth:`Event.succeed` hand-off, process kick-offs, store wake-ups) go
  to FIFO deques drained ahead of the heap, skipping the
  ``heappush``/``heappop`` pair while preserving the exact
  ``(time, priority, seq)`` tie-break order.  Future events are
  time-bucketed: the heap orders unique float timestamps and a deque per
  timestamp keeps same-time events in seq order for free.
* **Allocation-free sleeps** — :meth:`Simulator.sleep` recycles
  kernel-owned :class:`Timeout` objects through a free list, so the
  dominant fire-and-forget delays (compute time, NIC gaps) allocate
  nothing in steady state.
* **Single-waiter dispatch** — ``Event._callbacks`` holds a bare callable
  for the overwhelmingly common sole-waiter case and is only promoted to
  a list on the second subscriber, eliminating a list allocation plus an
  iteration per processed event.

No reference cycles
-------------------
A simulation that runs to completion frees itself by reference counting
and leaves nothing for Python's cycle collector.  In the kernel that
takes three rules: a :class:`Process` drops its cached resume callback
(a bound method, so a reference back to the process) when its generator
returns or raises, and :meth:`Process.abandon` drops it for a loop that
never ends; a recycled sleep carries ``sim = None``, so the simulator's
free list holds nothing that refers back to it; and a processed event
drops its callbacks.  A run cut short for good is given up with
:meth:`Simulator.abandon`, which closes the processes still blocked and
forgets every queued event.  The layers above follow the same rule
(DESIGN.md, section 8, lists who drops what, and when);
``tests/test_no_cycles.py`` holds every figure path to it.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(proc(sim, "b", 2.0))
>>> _ = sim.process(proc(sim, "a", 1.0))
>>> sim.run()
>>> log
[(1.0, 'a'), (2.0, 'b')]
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Simulator",
    "AllOf",
]

#: Sentinel marking an event whose value has not been set yet.
_PENDING = object()

#: Sentinel for an event nothing has waited on yet.  Most :class:`Timeout`
#: events (compute delays, NIC gaps) trigger and get processed without ever
#: acquiring a waiter besides the process that created them — keeping this
#: sentinel instead of an empty list avoids one list allocation per event
#: on the kernel's hottest path.
_NO_WAITERS = object()

_INF = float("inf")


def _detach(event: "Event", callback: Callable) -> None:
    """Remove ``callback`` from ``event``'s waiters, if it is one."""
    cbs = event._callbacks
    if type(cbs) is list:
        if callback in cbs:
            cbs.remove(callback)
    elif cbs == callback:
        event._callbacks = _NO_WAITERS


class Event:
    """A happening in simulated time that processes can wait on.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers it: the kernel schedules it at the current simulation time and,
    when it is popped from the queue, runs the registered callbacks (which is
    how waiting processes get resumed).

    Events are single-shot: triggering twice raises :class:`SimulationError`.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_ok", "_scheduled",
                 "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Waiter states: :data:`_NO_WAITERS` (nothing registered yet), a
        #: bare callable (exactly one waiter — the common case), a list
        #: (two or more waiters), or ``None`` (processed).
        self._callbacks: Any = _NO_WAITERS
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._defused = False

    @property
    def callbacks(self) -> Optional[list]:
        """Callables ``cb(event)`` invoked when the event is processed.

        ``None`` once the event has been processed.  The list is
        materialized lazily on first access — events nothing ever waits on
        (the common fate of a :class:`Timeout`) never allocate one, and a
        sole waiter is stored as a bare callable until a second subscriber
        forces promotion.
        """
        cbs = self._callbacks
        if cbs is _NO_WAITERS:
            cbs = self._callbacks = []
        elif cbs is not None and type(cbs) is not list:
            cbs = self._callbacks = [cbs]
        return cbs

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the kernel has run this event's callbacks."""
        return self._callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or the exception, for a failed event)."""
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined zero-delay _schedule: the already-triggered guard above
        # subsumes the double-schedule check, so a succeed() hand-off is a
        # seq bump plus one ring append.
        self._scheduled = True
        sim = self.sim
        seq = sim._seq = sim._seq + 1
        sim._ring.append((seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have the exception thrown at their ``yield``
        statement.  If nothing waits on a failed event, the simulator raises
        the exception at the end of the step (mirroring SimPy's "unhandled
        failure" behaviour) unless the kernel marked it handled.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not (0.0 <= delay < _INF):
            # A NaN delay fails both comparisons; inf fails the second.
            # Either would silently corrupt the heap's total order.
            raise SimulationError(
                f"timeout delay must be finite and non-negative: {delay!r}")
        # Event.__init__ and _schedule inlined: a timeout is born triggered
        # and scheduled, so the construction path is pure attribute stores
        # plus one ring append / heap push.
        self.sim = sim
        self._callbacks = _NO_WAITERS
        self._ok = True
        self._scheduled = True
        self._defused = False
        if delay.__class__ is not float:
            delay = float(delay)
        self.delay = delay
        self._value = value
        seq = sim._seq = sim._seq + 1
        if delay == 0.0:
            sim._ring.append((seq, self))
        else:
            when = sim._now + delay
            buckets = sim._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = (seq, self)
                heappush(sim._queue, when)
            elif bucket.__class__ is tuple:
                buckets[when] = deque((bucket, (seq, self)))
            else:
                bucket.append((seq, self))


class _Sleep(Timeout):
    """A kernel-owned, recycled timeout (see :meth:`Simulator.sleep`).

    Instances live on the simulator's free list between uses, so the
    contract is strict: a sleep event must be yielded immediately by the
    process that created it and never stored, composed into a condition,
    or inspected after it fires — the kernel resets its state the moment
    its callbacks have run.  A sleep's ``sim`` is ``None``: the simulator
    owns its free list, and nothing on a sleep's path (queueing,
    dispatch, ``Process`` resumption) reads it, so the list holds no
    reference back to its owner.
    """

    __slots__ = ()

    def __init__(self):
        Event.__init__(self, None)
        self.delay = 0.0
        self._ok = True
        self._scheduled = True


class _Initialize(Event):
    """Internal event used to kick a newly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator"):
        # Inlined Event.__init__ plus a direct init-ring append.  The init
        # ring carries no sequence numbers (priority -1 outranks every
        # same-time priority-0 event regardless of age), so the kernel-wide
        # counter is not bumped here; relative order among ring and heap
        # entries — the only places seqs are compared — is unaffected.
        self.sim = sim
        self._callbacks = _NO_WAITERS
        self._value = None
        self._ok = True
        self._scheduled = True
        self._defused = False
        sim._init_ring.append(self)


class Process(Event):
    """A simulated activity wrapping a generator.

    The process is itself an :class:`Event` that triggers when the generator
    returns (successfully, with the ``return`` value as payload) or raises
    (a failure, with the exception as payload).
    """

    __slots__ = ("gen", "name", "_target", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "throw"):
            raise TypeError(f"process target must be a generator, got {gen!r}")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        #: The event this process is currently waiting on (None if running).
        self._target: Optional[Event] = None
        #: The bound resume method, created once: registering a waiter is
        #: then a pointer store instead of a bound-method allocation, and
        #: detaching can compare by identity.
        self._resume_cb = self._resume
        init = _Initialize(sim)
        init._callbacks = self._resume_cb

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not finished."""
        return self._value is _PENDING

    # -- kernel plumbing --------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._target = None
        gen = self.gen
        while True:
            try:
                if event._ok:
                    next_ev = gen.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_ev = gen.throw(exc)
            except StopIteration as stop:
                self._end(True, stop.value)
                break
            except BaseException as exc:
                self._end(False, exc)
                break

            if not isinstance(next_ev, Event):
                exc2 = SimulationError(
                    f"process {self.name!r} yielded non-event {next_ev!r}")
                try:
                    gen.throw(exc2)
                except StopIteration as stop:
                    self._end(True, stop.value)
                    break
                except BaseException as raised:
                    self._end(False, raised)
                    break
                continue

            cbs = next_ev._callbacks
            if cbs is None:
                # Already processed: loop synchronously with its value.
                event = next_ev
                continue

            resume = self._resume_cb
            if cbs is _NO_WAITERS:
                next_ev._callbacks = resume
            elif type(cbs) is list:
                cbs.append(resume)
            else:
                next_ev._callbacks = [cbs, resume]
            self._target = next_ev
            break

    def _end(self, ok: bool, value: Any) -> None:
        """The generator is done: trigger the process with its outcome.

        The cached resume callback refers back to this process; dropping
        it here leaves a finished process in no reference cycle.
        """
        self._ok = ok
        self._value = value
        self._resume_cb = None
        self.sim._schedule(self)

    def abandon(self) -> None:
        """Give up on a blocked process for good, adding no event.

        For loops that never return, such as a rank's progress engine,
        once their owner is gone, and for programs blocked in a run cut
        short.  The process is detached from the event it waits on and
        releases its cached resume callback, so nothing refers back to
        it; it is never resumed and never triggers, and its generator is
        closed when the process is freed.  An :class:`AllOf` left with
        no waiter lets go of its sub-events in turn.
        """
        target = self._target
        if target is not None:
            _detach(target, self._resume_cb)
            self._target = None
            if isinstance(target, AllOf) and \
                    target._callbacks is _NO_WAITERS:
                for event in target.events:
                    _detach(event, target._check)
        self._resume_cb = None


class AllOf(Event):
    """Triggers when *all* sub-events have triggered (fails fast on failure).

    Succeeds with a dict mapping each sub-event to its value.
    """

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        self._count = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        if not self.events:
            self.succeed({})
            return
        check = self._check
        for ev in self.events:
            cbs = ev._callbacks
            if cbs is None:
                check(ev)
            elif cbs is _NO_WAITERS:
                ev._callbacks = check
            elif type(cbs) is list:
                cbs.append(check)
            else:
                ev._callbacks = [cbs, check]

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed({ev: ev._value for ev in self.events})


class Simulator:
    """The event loop: a priority queue of events in virtual time.

    Events scheduled at the *current* time bypass the heap entirely: they
    land on FIFO rings (one for ordinary events, one for the higher-priority
    process kick-offs) that :meth:`run` drains with the exact ordering the
    heap would have produced — each ring entry carries its sequence number,
    so an event already sitting in the heap for this same instant still wins
    the tie when its sequence number is older.
    """

    def __init__(self):
        self._now = 0.0
        #: Future events, time-bucketed: ``_queue`` is a heap of *unique*
        #: float timestamps and ``_buckets`` maps each of them to either
        #: a bare ``(seq, event)`` pair (one event at that time — the
        #: common case) or a FIFO deque of such pairs.  Only events with
        #: a strictly positive delay land here; the rings below hold
        #: everything scheduled for the current instant.  Buckets are in
        #: ascending seq order by construction (the seq counter is
        #: monotonic), so draining a bucket front-to-back reproduces
        #: exactly the ``(time, seq)`` order a flat heap would give —
        #: but events sharing a timestamp cost O(1) instead of a log-n
        #: sift, and the heap itself compares bare floats instead of
        #: tuples.
        self._queue: list = []
        self._buckets: dict = {}
        #: Immediate events (``delay == 0``, priority 0) as ``(seq, event)``.
        self._ring: deque = deque()
        #: Immediate process kick-offs (priority -1): always processed
        #: before any same-time priority-0 event, so no seq is needed.
        self._init_ring: deque = deque()
        #: Recycled :class:`_Sleep` events (see :meth:`sleep`).
        self._sleep_pool: list = []
        self._seq = 0
        #: Number of events processed so far (monotone counter, useful in tests).
        self.events_processed = 0

    # -- public API -----------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Timeout:
        """A recycled timeout for the fire-and-forget ``yield`` idiom.

        Semantically identical to :meth:`timeout`, but the returned event
        comes from a per-simulator free list and goes back on it as soon as
        it has been processed, so steady-state compute delays and NIC gaps
        allocate nothing.  The contract: ``yield sim.sleep(d)`` immediately
        and let go — never store the event, pass it to :class:`AllOf`,
        or read it after it fires.  Use :meth:`timeout`
        for anything fancier.
        """
        if not (0.0 <= delay < _INF):
            raise SimulationError(
                f"sleep delay must be finite and non-negative: {delay!r}")
        pool = self._sleep_pool
        if pool:
            ev = pool.pop()
            ev._callbacks = _NO_WAITERS
            ev._defused = False
        else:
            ev = _Sleep()
        ev.delay = delay
        ev._value = value
        seq = self._seq = self._seq + 1
        if delay == 0.0:
            self._ring.append((seq, ev))
        else:
            when = self._now + delay
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = (seq, ev)
                heappush(self._queue, when)
            elif bucket.__class__ is tuple:
                buckets[when] = deque((bucket, (seq, ev)))
            else:
                bucket.append((seq, ev))
        return ev

    def call_in(self, delay: float, callback: Callable[[Event], None],
                value: Any = None) -> None:
        """Run ``callback(event)`` once ``delay`` seconds have passed.

        The callback twin of ``yield sim.sleep(delay, value)``: the same
        recycled event takes the same sequence number and queue slot, but
        when it fires the kernel calls ``callback`` instead of resuming a
        process.  The event is gone once the callback returns, so the
        callback may read ``event.value`` but must not keep the event.
        """
        self.sleep(delay, value)._callbacks = callback

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator and return its handle."""
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: all of ``events`` triggered."""
        return AllOf(self, events)

    def abandon(self, processes: Iterable[Process] = ()) -> None:
        """Give up a run that stopped short, for good.

        Abandons and closes ``processes`` (programs still blocked) and
        every process a queued event would resume, then forgets every
        queued event, so the simulation frees itself by reference
        counting like one that ran to completion.  The simulator must
        not run again.
        """
        blocked = list(processes)
        queued = [event for _, event in self._ring]
        queued += self._init_ring
        for bucket in self._buckets.values():
            if bucket.__class__ is tuple:
                queued.append(bucket[1])
            else:
                queued.extend(event for _, event in bucket)
        for event in queued:
            cbs = event._callbacks
            for cb in (cbs if type(cbs) is list else (cbs,)):
                if getattr(cb, "__func__", None) is Process._resume:
                    blocked.append(cb.__self__)
        for proc in blocked:
            proc.abandon()
            # Closing runs the generators' cleanup, which may queue more
            # events; they are forgotten below with the rest.
            proc.gen.close()
        self._queue.clear()
        self._buckets.clear()
        self._ring.clear()
        self._init_ring.clear()

    def run(self) -> None:
        """Run until the event queue drains."""
        # The event selection and dispatch run inline with everything hot
        # in locals: at thousands of events per trial a per-event method
        # call and the repeated attribute loads are measurable.
        queue = self._queue
        buckets = self._buckets
        ring = self._ring
        init_ring = self._init_ring
        pool = self._sleep_pool
        pop = heappop
        no_waiters = _NO_WAITERS
        sleep_cls = _Sleep
        list_cls = list
        # ``events_processed`` accumulates in a local and is flushed in
        # the finally block (nothing observes the counter mid-run; tests
        # and benchmarks read it after run() returns).
        processed = 0
        event = None
        try:
            while queue or ring or init_ring:
                if init_ring:
                    event = init_ring.popleft()
                elif ring:
                    # An event heaped earlier can land exactly at the
                    # current instant; its older seq must still win the
                    # tie.
                    if queue and queue[0] == self._now:
                        bucket = buckets[queue[0]]
                        singleton = bucket.__class__ is tuple
                        if (bucket[0] if singleton
                                else bucket[0][0]) < ring[0][0]:
                            if singleton:
                                event = bucket[1]
                                del buckets[pop(queue)]
                            else:
                                event = bucket.popleft()[1]
                                if not bucket:
                                    del buckets[pop(queue)]
                        else:
                            event = ring.popleft()[1]
                    else:
                        event = ring.popleft()[1]
                else:
                    when = queue[0]
                    bucket = buckets[when]
                    if bucket.__class__ is tuple:
                        event = bucket[1]
                        del buckets[pop(queue)]
                    else:
                        event = bucket.popleft()[1]
                        if not bucket:
                            del buckets[pop(queue)]
                    self._now = when
                processed += 1
                callbacks = event._callbacks
                event._callbacks = None
                if type(callbacks) is list_cls:
                    if callbacks:
                        for cb in callbacks:
                            cb(event)
                    elif not event._ok and not event._defused:
                        raise event._value
                elif callbacks is not no_waiters:
                    callbacks(event)
                elif not event._ok and not event._defused:
                    raise event._value
                if type(event) is sleep_cls:
                    # Drop the payload so a recycled sleep keeps nothing
                    # alive (a delivery's frame, a store's item).
                    event._value = None
                    pool.append(event)
        except BaseException as exc:
            # A failure no one waited for leaves as this exception.  Its
            # event lets go of it: the traceback's frames hold the event
            # (a failed process, in its own frames too), which would
            # otherwise close a reference cycle through the exception.
            if event is not None and event._value is exc:
                event._value = None
            raise
        finally:
            self.events_processed += processed

    # -- internals ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = 0) -> None:
        """Enqueue a triggered event.

        ``priority`` must be 0 (ordinary events) or -1 (process kick-offs,
        which always carry ``delay == 0`` and outrank every same-time
        priority-0 event).  Zero-delay events go to the rings; everything
        else is heaped.
        """
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        seq = self._seq = self._seq + 1
        if priority != 0:
            self._init_ring.append(event)
        elif delay == 0.0:
            self._ring.append((seq, event))
        else:
            when = self._now + delay
            buckets = self._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = (seq, event)
                heappush(self._queue, when)
            elif bucket.__class__ is tuple:
                buckets[when] = deque((bucket, (seq, event)))
            else:
                bucket.append((seq, event))
