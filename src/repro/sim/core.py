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
  :meth:`Event.succeed` hand-off, process kick-offs, interrupts, store
  wake-ups) go to FIFO deques drained ahead of the heap, skipping the
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

from ..errors import ConfigurationError, DeadlockError, SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Simulator",
    "AnyOf",
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


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


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
        failure" behaviour) unless :meth:`defused` is set.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled even if no process waits on it."""
        self._defused = True

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
    its callbacks have run.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator"):
        Event.__init__(self, sim)
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

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        target = self._target
        if target is None:
            raise SimulationError(
                f"cannot interrupt process {self.name} from within itself")
        # O(1) detach from the event we were waiting on: a sole waiter is
        # cleared outright; on a multi-waiter list our entry is left in
        # place and neutralized by the ``_target`` guard in ``_resume``
        # when the event eventually fires (no O(n) ``list.remove``).
        resume = self._resume_cb
        if target._callbacks is resume:
            target._callbacks = _NO_WAITERS
        hit = Event(self.sim)
        hit._ok = False
        hit._value = Interrupt(cause)
        hit._defused = True
        hit._callbacks = resume
        self._target = hit
        self.sim._schedule(hit)

    # -- kernel plumbing --------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._target is not event and type(event) is not _Initialize:
            # Stale wake-up: an interrupt moved us off this event while it
            # still held our callback (see interrupt()).
            return
        self.sim._active_proc = self
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
                self._ok = True
                self._value = stop.value
                self.sim._schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.sim._schedule(self)
                break

            if not isinstance(next_ev, Event):
                exc2 = SimulationError(
                    f"process {self.name!r} yielded non-event {next_ev!r}")
                try:
                    gen.throw(exc2)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    self.sim._schedule(self)
                    break
                except BaseException as raised:
                    self._ok = False
                    self._value = raised
                    self.sim._schedule(self)
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
        self.sim._active_proc = None


class Condition(Event):
    """Base for composite events over a fixed set of sub-events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        self._count = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        if not self.events:
            self.succeed(self._collect())
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

    def _collect(self) -> dict:
        return {
            ev: ev._value
            for ev in self.events
            if ev._value is not _PENDING and ev._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _finish(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())


class AllOf(Condition):
    """Triggers when *all* sub-events have triggered (fails fast on failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self._finish(event)
            return
        self._count += 1
        if self._count == len(self.events):
            self._finish(event)


class AnyOf(Condition):
    """Triggers when *any* sub-event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._finish(event)


class Simulator:
    """The event loop: a priority queue of events in virtual time.

    Events scheduled at the *current* time bypass the heap entirely: they
    land on FIFO rings (one for ordinary events, one for the higher-priority
    process kick-offs) that :meth:`_step` drains with the exact ordering the
    heap would have produced — each ring entry carries its sequence number,
    so an event already sitting in the heap for this same instant still wins
    the tie when its sequence number is older.

    Parameters
    ----------
    trace:
        Optional callable ``trace(time, event)`` invoked for every processed
        event; a kernel-level debugging hook for recording raw schedules.
        Note that trace hooks must not retain :meth:`sleep` events — those
        are recycled the moment they are processed.
    """

    def __init__(self, trace: Optional[Callable[[float, Event], None]] = None):
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
        self._active_proc: Optional[Process] = None
        self._trace = trace
        #: Number of events processed so far (monotone counter, useful in tests).
        self.events_processed = 0
        #: Optional resource observer (see :mod:`repro.analysis.deadlock`).
        #: When set, :class:`~repro.sim.resources.Resource` notifies it of
        #: every request/grant/release so wait-for graphs can be built.
        #: ``None`` (the default) keeps the hot path free of any overhead.
        self.monitor: Optional[Any] = None

    # -- public API -----------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_proc

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
        and let go — never store the event, pass it to :class:`AnyOf` /
        :class:`AllOf`, or read it after it fires.  Use :meth:`timeout`
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
            ev = _Sleep(self)
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

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: first of ``events`` to trigger."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: all of ``events`` triggered."""
        return AllOf(self, events)

    def run(self, until: Optional[float] = None,
            detect_deadlock: bool = False) -> None:
        """Run until the queue drains or simulated time passes ``until``.

        With ``detect_deadlock=True`` a drained queue before ``until`` raises
        :class:`~repro.errors.DeadlockError` — useful when simulating MPI
        programs that must terminate on their own.  Deadlock detection is
        defined *relative to the horizon*: it needs an explicit ``until``,
        so passing ``detect_deadlock=True`` without one raises
        :class:`~repro.errors.ConfigurationError` (it used to be silently
        ignored).  To watch for stuck processes without a time horizon, use
        :meth:`run_until_complete` on the process of interest instead.
        """
        if detect_deadlock and until is None:
            raise ConfigurationError(
                "detect_deadlock=True needs an explicit until= horizon: a "
                "drained queue is only a deadlock if it happens before a "
                "time the simulation was expected to reach")
        if until is not None and until < self._now:
            raise SimulationError(
                f"until={until} is in the past (now={self._now})")
        # The drain loop below is _step() with the event selection and
        # dispatch inlined (keep the two in sync): at thousands of events
        # per trial the per-event method call and the repeated attribute
        # loads are measurable.  An ``until`` of None becomes an infinite
        # horizon — timeout delays are validated finite, so the horizon
        # check can never fire in that case.
        queue = self._queue
        buckets = self._buckets
        ring = self._ring
        init_ring = self._init_ring
        pool = self._sleep_pool
        trace = self._trace
        pop = heappop
        no_waiters = _NO_WAITERS
        sleep_cls = _Sleep
        list_cls = list
        horizon = _INF if until is None else until
        # ``events_processed`` accumulates in a local and is flushed in
        # the finally block (nothing observes the counter mid-run; tests
        # and benchmarks read it after run() returns).
        processed = 0
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
                    if when > horizon:
                        self._now = until
                        return
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
                if trace is not None:
                    trace(self._now, event)
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
        finally:
            self.events_processed += processed
        if detect_deadlock and self._now < until:
            raise DeadlockError(
                f"event queue drained at t={self._now} before until={until}")

    def run_until_complete(self, proc: Process,
                           limit: Optional[float] = None) -> Any:
        """Run until ``proc`` finishes and return its value (re-raising failures)."""
        while not proc.triggered:
            if not (self._queue or self._ring or self._init_ring):
                raise DeadlockError(
                    f"process {proc.name!r} cannot complete: queue drained "
                    f"at t={self._now}")
            if limit is not None:
                next_time = (self._now if self._ring or self._init_ring
                             else self._queue[0])
                if next_time > limit:
                    raise SimulationError(
                        f"process {proc.name!r} did not finish by t={limit}")
            self._step()
        # Drain same-time stragglers of the completing event itself.
        if not proc.processed:
            self._step_until_processed(proc)
        if proc._ok:
            return proc._value
        raise proc._value

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

    def _step(self) -> None:
        init_ring = self._init_ring
        if init_ring:
            # Priority -1 beats any same-time heap entry (the heap only
            # ever holds priority-0 events), and the heap head can never
            # be in the past.
            event = init_ring.popleft()
        else:
            ring = self._ring
            queue = self._queue
            buckets = self._buckets
            if ring:
                # An event heaped earlier can land exactly at the current
                # instant; its older seq must still win the tie, exactly
                # as it would have in a pure-heap kernel.
                event = None
                if queue and queue[0] == self._now:
                    bucket = buckets[queue[0]]
                    singleton = bucket.__class__ is tuple
                    if (bucket[0] if singleton
                            else bucket[0][0]) < ring[0][0]:
                        if singleton:
                            event = bucket[1]
                            del buckets[heappop(queue)]
                        else:
                            event = bucket.popleft()[1]
                            if not bucket:
                                del buckets[heappop(queue)]
                if event is None:
                    event = ring.popleft()[1]
            else:
                when = queue[0]
                if when < self._now:  # pragma: no cover - internal invariant
                    raise SimulationError("time ran backwards")
                bucket = buckets[when]
                if bucket.__class__ is tuple:
                    event = bucket[1]
                    del buckets[heappop(queue)]
                else:
                    event = bucket.popleft()[1]
                    if not bucket:
                        del buckets[heappop(queue)]
                self._now = when
        self.events_processed += 1
        if self._trace is not None:
            self._trace(self._now, event)
        callbacks = event._callbacks
        event._callbacks = None
        if type(callbacks) is list:
            if callbacks:
                for cb in callbacks:
                    cb(event)
            elif not event._ok and not event._defused:
                raise event._value
        elif callbacks is not _NO_WAITERS:
            # Bare callable: the single-waiter fast path.
            callbacks(event)
        elif not event._ok and not event._defused:
            raise event._value
        if type(event) is _Sleep:
            event._value = None
            self._sleep_pool.append(event)

    def _step_until_processed(self, event: Event) -> None:
        while not event.processed and (self._queue or self._ring
                                       or self._init_ring):
            self._step()
