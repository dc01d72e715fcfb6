"""Unit tests for resources, mutexes (with stats), and stores."""

import pytest

from repro.errors import SimulationError
from repro.sim import Mutex, Resource, Store


class TestResource:
    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_grant_is_immediate_when_free(self, sim):
        res = Resource(sim, capacity=2)
        got = []

        def user():
            yield res.request()
            got.append(sim.now)

        sim.process(user())
        sim.process(user())
        sim.run()
        assert got == [0.0, 0.0]
        assert res.in_use == 2

    def test_fifo_queueing(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def user(name, hold):
            yield res.request()
            order.append((name, sim.now))
            yield sim.timeout(hold)
            res.release()

        for i in range(3):
            sim.process(user(f"u{i}", 2.0))
        sim.run()
        assert order == [("u0", 0.0), ("u1", 2.0), ("u2", 4.0)]

    def test_release_idle_raises(self, sim):
        res = Resource(sim)
        with pytest.raises(SimulationError):
            res.release()

    def test_release_hands_unit_to_waiter(self, sim):
        res = Resource(sim, capacity=1)

        def holder():
            yield res.request()
            yield sim.timeout(1.0)
            res.release()

        def waiter():
            yield res.request()
            return sim.now

        sim.process(holder())
        w = sim.process(waiter())
        sim.run()
        assert w.value == 1.0
        assert res.in_use == 1  # waiter still holds


class TestMutex:
    def test_uncontended_acquisition_has_no_wait(self, sim):
        m = Mutex(sim)

        def user():
            yield from m.acquire()
            yield sim.timeout(1.0)
            m.release()

        sim.process(user())
        sim.run()
        assert m.stats.acquisitions == 1
        assert m.stats.contended_acquisitions == 0
        assert m.stats.total_wait_time == 0.0
        assert m.stats.total_hold_time == pytest.approx(1.0)

    def test_contention_statistics(self, sim):
        m = Mutex(sim)

        def user():
            yield from m.acquire()
            yield sim.timeout(1.0)
            m.release()

        for _ in range(4):
            sim.process(user())
        sim.run()
        assert m.stats.acquisitions == 4
        assert m.stats.contended_acquisitions == 3
        assert m.stats.total_wait_time == pytest.approx(1 + 2 + 3)
        assert m.stats.contention_ratio == pytest.approx(0.75)
        assert m.stats.max_queue_length >= 1

    def test_locked_property(self, sim):
        m = Mutex(sim)
        states = []

        def user():
            states.append(m.locked)
            yield from m.acquire()
            states.append(m.locked)
            m.release()
            states.append(m.locked)

        sim.process(user())
        sim.run()
        assert states == [False, True, False]


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = []

        def consumer():
            got.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            got.append(((yield store.get()), sim.now))

        def producer():
            yield sim.timeout(3.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [("late", 3.0)]

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for i in range(3):
            store.put(i)
        got = []

        def consumer():
            for _ in range(3):
                got.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        got = []

        def consumer(name):
            got.append((name, (yield store.get())))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1.0)
            store.put("a")
            store.put("b")

        sim.process(producer())
        sim.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_len(self, sim):
        store = Store(sim)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2
