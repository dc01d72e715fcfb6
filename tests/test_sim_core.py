"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import (ConfigurationError, DeadlockError,
                          SimulationError)
from repro.sim import (AllOf, AnyOf, Event, Interrupt, Process,
                       Timeout)


class TestEvent:
    def test_fresh_event_is_untriggered(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_ok_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().ok

    def test_succeed_sets_value(self, sim):
        ev = sim.event().succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_succeed_raises(self, sim):
        ev = sim.event().succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_failed_event_with_no_waiter_raises_at_step(self, sim):
        sim.event().fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_defused_failure_does_not_raise(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        ev.defuse()
        sim.run()  # no exception

    def test_callbacks_run_at_processing(self, sim):
        seen = []
        ev = sim.event()
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("payload")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["payload"]
        assert ev.processed


class TestTimeout:
    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_timeout_advances_clock(self, sim):
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_zero_delay_fires_now(self, sim):
        sim.timeout(0.0)
        sim.run()
        assert sim.now == 0.0

    def test_timeout_carries_value(self, sim):
        got = []

        def proc():
            value = yield sim.timeout(1.0, value="tick")
            got.append(value)

        sim.process(proc())
        sim.run()
        assert got == ["tick"]


class TestProcess:
    def test_processes_resume_in_time_order(self, sim):
        log = []

        def proc(name, delay):
            yield sim.timeout(delay)
            log.append((sim.now, name))

        sim.process(proc("late", 2.0))
        sim.process(proc("early", 1.0))
        sim.run()
        assert log == [(1.0, "early"), (2.0, "late")]

    def test_same_time_ties_break_by_insertion(self, sim):
        log = []

        def proc(name):
            yield sim.timeout(1.0)
            log.append(name)

        for name in "abc":
            sim.process(proc(name))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_return_value_becomes_event_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"

    def test_exception_propagates_to_waiter(self, sim):
        def failing():
            yield sim.timeout(1.0)
            raise RuntimeError("inner")

        def waiter():
            with pytest.raises(RuntimeError, match="inner"):
                yield sim.process(failing())
            return "handled"

        w = sim.process(waiter())
        sim.run()
        assert w.value == "handled"

    def test_unhandled_process_failure_raises_from_run(self, sim):
        def failing():
            yield sim.timeout(1.0)
            raise RuntimeError("unhandled")

        sim.process(failing())
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_yield_non_event_raises_inside_process(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)

    def test_waiting_on_already_processed_event(self, sim):
        ev = sim.event().succeed("early")
        sim.run()
        got = []

        def proc():
            value = yield ev
            got.append((sim.now, value))

        sim.process(proc())
        sim.run()
        assert got == [(0.0, "early")]

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(1.0)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_wakes_process_with_cause(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as exc:
                log.append((sim.now, exc.cause))

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(3.0)
            p.interrupt("wakeup")

        sim.process(interrupter())
        sim.run()
        assert log == [(3.0, "wakeup")]

    def test_interrupt_dead_process_raises(self, sim):
        def quick():
            yield sim.timeout(1.0)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()


class TestConditions:
    def test_all_of_waits_for_everything(self, sim):
        def waiter():
            yield AllOf(sim, [sim.timeout(1.0), sim.timeout(5.0)])
            return sim.now

        p = sim.process(waiter())
        sim.run()
        assert p.value == 5.0

    def test_any_of_fires_on_first(self, sim):
        def waiter():
            yield AnyOf(sim, [sim.timeout(1.0), sim.timeout(5.0)])
            return sim.now

        p = sim.process(waiter())
        sim.run()
        assert p.value == 1.0

    def test_empty_all_of_triggers_immediately(self, sim):
        cond = AllOf(sim, [])
        assert cond.triggered

    def test_all_of_fails_fast(self, sim):
        bad = sim.event()

        def failer():
            yield sim.timeout(1.0)
            bad.fail(ValueError("nope"))

        def waiter():
            with pytest.raises(ValueError):
                yield AllOf(sim, [bad, sim.timeout(100.0)])
            return sim.now

        sim.process(failer())
        w = sim.process(waiter())
        sim.run()
        assert w.value == 1.0


class TestRun:
    def test_run_until_stops_mid_simulation(self, sim):
        sim.timeout(10.0)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_in_past_raises(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0.5)

    def test_deadlock_detection(self, sim):
        def stuck():
            yield sim.event()  # never triggered

        sim.process(stuck())
        with pytest.raises(DeadlockError):
            sim.run(until=100.0, detect_deadlock=True)

    def test_deadlock_detection_requires_until(self, sim):
        # With until=None an empty queue is the normal way runs end, so
        # "queue drained" cannot be distinguished from a deadlock; the
        # kernel rejects the combination instead of silently ignoring it.
        with pytest.raises(ConfigurationError):
            sim.run(detect_deadlock=True)

    def test_run_until_complete_returns_value(self, sim):
        def proc():
            yield sim.timeout(2.0)
            return "finished"

        p = sim.process(proc())
        assert sim.run_until_complete(p) == "finished"

    def test_run_until_complete_detects_deadlock(self, sim):
        def stuck():
            yield sim.event()

        p = sim.process(stuck())
        with pytest.raises(DeadlockError):
            sim.run_until_complete(p)

    def test_events_processed_counter(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.events_processed == 2


class TestNonFiniteDelays:
    def test_timeout_nan_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(float("nan"))

    def test_timeout_inf_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(float("inf"))

    def test_sleep_nan_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.sleep(float("nan"))

    def test_sleep_inf_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.sleep(float("inf"))

    def test_rejected_delay_schedules_nothing(self, sim):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(SimulationError):
                sim.timeout(bad)
        sim.run()
        assert sim.events_processed == 0
        assert sim.now == 0.0


class TestSleepRecycling:
    def test_sleep_event_is_recycled(self, sim):
        seen = []

        def proc():
            for delay in (1.0, 2.0, 3.0):
                ev = sim.sleep(delay)
                seen.append(ev)
                yield ev

        sim.process(proc())
        sim.run()
        # A processed sleep goes back on the free list once its waiter has
        # resumed: the second sleep is requested mid-dispatch (before the
        # first is recycled) and allocates fresh, the third reuses the
        # first.
        assert seen[2] is seen[0]
        assert seen[1] is not seen[0]
        assert sim.now == 6.0

    def test_sleep_zero_goes_through_ring(self, sim):
        order = []

        def a():
            yield sim.sleep(0.0)
            order.append("a")

        def b():
            yield sim.sleep(0.0)
            order.append("b")

        sim.process(a())
        sim.process(b())
        sim.run()
        assert order == ["a", "b"]
        assert sim.now == 0.0

    def test_sleep_matches_timeout_semantics(self, sim):
        times = []

        def proc():
            yield sim.sleep(1.5)
            times.append(sim.now)
            yield sim.timeout(1.5)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [1.5, 3.0]

    def test_call_in_takes_the_slot_a_sleep_would(self, sim):
        order = []

        def proc(name, delay):
            yield sim.sleep(delay)
            order.append((name, sim.now))

        sim.process(proc("before", 1.0))
        sim.run(until=0.5)
        sim.call_in(0.5, lambda ev: order.append((ev.value, sim.now)),
                    "callback")
        sim.process(proc("after", 0.5))
        sim.run()
        # One instant, so sequence order decides: the callback's event was
        # scheduled between the two sleeps.
        assert order == [("before", 1.0), ("callback", 1.0), ("after", 1.0)]
        # Its event went back on the free list without its payload.
        assert sim._sleep_pool and all(ev._value is None
                                       for ev in sim._sleep_pool)


class TestInterruptDetach:
    def test_interrupt_on_heavily_subscribed_event(self, sim):
        """Interrupting one of many waiters must not disturb the rest.

        The interrupted process's callback stays in the event's waiter
        list (O(1) detach) and is neutralized by the stale-wakeup guard
        when the event eventually fires.
        """
        gate = sim.event()
        woke, interrupted = [], []

        def waiter(i):
            try:
                yield gate
                woke.append(i)
            except Interrupt:
                interrupted.append(i)
                yield sim.timeout(5.0)

        procs = [sim.process(waiter(i)) for i in range(20)]

        def controller():
            yield sim.timeout(1.0)
            procs[7].interrupt("out")
            gate.succeed()

        sim.process(controller())
        sim.run()
        assert interrupted == [7]
        assert sorted(woke) == [i for i in range(20) if i != 7]

    def test_interrupt_sole_waiter_clears_callback(self, sim):
        gate = sim.event()

        def waiter():
            try:
                yield gate
            except Interrupt:
                yield sim.timeout(1.0)

        p = sim.process(waiter())

        def controller():
            yield sim.timeout(1.0)
            p.interrupt()

        sim.process(controller())
        sim.run()
        # The interrupted process never wakes on the gate: firing it
        # later must find no stale waiter to resume.
        gate.succeed()
        sim.run()
        assert sim.now == 2.0


class TestImmediateRing:
    def test_heap_event_at_now_beats_newer_ring_event(self, sim):
        """A heaped event landing exactly at the current instant still
        dispatches before ring entries created later (older seq wins)."""
        order = []

        def early():
            yield sim.timeout(1.0)
            order.append("heaped")

        def late():
            yield sim.timeout(1.0 - 2 ** -53)  # resumes just before t=1
            ev = sim.event()
            ev.succeed()  # ring entry with a newer seq than the timeout
            yield ev
            order.append("ring")

        sim.process(early())
        sim.process(late())
        sim.run()
        assert sim.now == 1.0

    def test_zero_delay_any_of(self, sim):
        results = []

        def proc():
            first = yield sim.any_of([sim.timeout(0.0, "a"),
                                      sim.event()])
            results.append((sim.now, sorted(first.values())))

        sim.process(proc())
        sim.run()
        assert results == [(0.0, ["a"])]

    def test_zero_delay_all_of(self, sim):
        results = []

        def proc():
            vals = yield sim.all_of([sim.timeout(0.0, "a"),
                                     sim.timeout(0.0, "b")])
            results.append((sim.now, sorted(ev.value for ev in vals)))

        sim.process(proc())
        sim.run()
        assert results == [(0.0, ["a", "b"])]

    def test_zero_delay_interrupt(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(10.0)
            except Interrupt as exc:
                log.append((sim.now, exc.cause))

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(0.0)
            p.interrupt("now")

        sim.process(interrupter())
        sim.run()
        assert log == [(0.0, "now")]

    def test_many_same_time_timeouts_preserve_order(self, sim):
        order = []

        def waiter(i):
            yield sim.timeout(1.0)
            order.append(i)

        for i in range(50):
            sim.process(waiter(i))
        sim.run()
        assert order == list(range(50))
