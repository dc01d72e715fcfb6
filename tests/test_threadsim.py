"""Thread-team simulation: fork/join, compute scaling, barriers."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.mpi import Cluster
from repro.threadsim import DEFAULT_OPENMP_COSTS, OpenMPCosts, SimBarrier
from repro.sim import Simulator


class TestOpenMPCosts:
    def test_fork_cost_grows_with_threads(self):
        c = DEFAULT_OPENMP_COSTS
        assert c.fork_cost(16) > c.fork_cost(2) > 0

    def test_join_cost_grows_with_threads(self):
        c = DEFAULT_OPENMP_COSTS
        assert c.join_cost(16) > c.join_cost(2) > 0

    def test_zero_threads_rejected(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_OPENMP_COSTS.fork_cost(0)
        with pytest.raises(ConfigurationError):
            DEFAULT_OPENMP_COSTS.join_cost(0)


class TestForkJoin:
    def test_workers_run_in_parallel(self):
        def program(ctx):
            def worker(tc):
                yield from tc.compute(0.01)
                return tc.thread_id

            team = yield from ctx.fork(8, worker)
            joined_at = yield from team.join()
            return (joined_at, team.results())

        cluster = Cluster(nranks=1)
        (joined_at, results), = cluster.run(program)
        # 8 parallel threads of 10 ms each: ~10 ms wall, not 80 ms.
        assert 0.01 < joined_at < 0.02
        assert results == list(range(8))

    def test_join_waits_for_slowest(self):
        def program(ctx):
            def worker(tc):
                yield from tc.compute(0.001 * (tc.thread_id + 1))

            team = yield from ctx.fork(4, worker)
            yield from team.join()
            return ctx.sim.now

        cluster = Cluster(nranks=1)
        (t,) = cluster.run(program)
        assert t >= 0.004

    def test_join_twice_raises(self):
        def program(ctx):
            def worker(tc):
                yield from tc.compute(1e-4)

            team = yield from ctx.fork(2, worker)
            yield from team.join()
            yield from team.join()

        with pytest.raises(SimulationError, match="twice"):
            Cluster(nranks=1).run(program)

    def test_results_before_join_raises(self):
        def program(ctx):
            def worker(tc):
                yield from tc.compute(0.01)

            team = yield from ctx.fork(2, worker)
            team.results()
            yield from team.join()

        with pytest.raises(SimulationError, match="join"):
            Cluster(nranks=1).run(program)

    def test_worker_failure_propagates_through_join(self):
        def program(ctx):
            def worker(tc):
                yield from tc.compute(1e-4)
                raise ValueError("worker died")

            team = yield from ctx.fork(2, worker)
            yield from team.join()

        with pytest.raises(ValueError, match="worker died"):
            Cluster(nranks=1).run(program)

    def test_oversubscribed_team_takes_longer(self):
        def run_with(nthreads):
            def program(ctx):
                def worker(tc):
                    yield from tc.compute(0.01)

                team = yield from ctx.fork(nthreads, worker)
                yield from team.join()
                return ctx.sim.now

            return Cluster(nranks=1).run(program)[0]

        t40 = run_with(40)
        t64 = run_with(64)   # 64 threads on 40 cores -> ~2x slower
        assert t64 > t40 * 1.5

    def test_parallel_helper(self):
        def program(ctx):
            results = yield from ctx.parallel(
                4, lambda tc: tc.compute(1e-4))
            return len(results)

        assert Cluster(nranks=1).run(program) == [4]

    def test_spillover_binding_in_team(self):
        def program(ctx):
            def worker(tc):
                yield from tc.compute(1e-5)
                return tc.core

            team = yield from ctx.fork(32, worker)
            yield from team.join()
            return team.results()

        (cores,) = Cluster(nranks=1).run(program)
        sockets = {c // 20 for c in cores}
        assert sockets == {0, 1}


class TestSimBarrier:
    def test_all_parties_leave_together(self):
        sim = Simulator()
        bar = SimBarrier(sim, parties=3, cost_per_party=0.0)
        leave = []

        def member(delay):
            yield sim.timeout(delay)
            yield from bar.wait()
            leave.append(sim.now)

        for d in (1.0, 2.0, 3.0):
            sim.process(member(d))
        sim.run()
        assert leave == [3.0, 3.0, 3.0]

    def test_barrier_is_reusable(self):
        sim = Simulator()
        bar = SimBarrier(sim, parties=2, cost_per_party=0.0)
        log = []

        def member(tid):
            for round_idx in range(3):
                yield sim.timeout(1.0 + tid * 0.1)
                yield from bar.wait()
                log.append((round_idx, tid, sim.now))

        sim.process(member(0))
        sim.process(member(1))
        sim.run()
        assert len(log) == 6
        # Within each round, both members leave at the same instant.
        by_round = {}
        for round_idx, _, t in log:
            by_round.setdefault(round_idx, set()).add(t)
        assert all(len(ts) == 1 for ts in by_round.values())

    def test_single_party_never_blocks(self):
        sim = Simulator()
        bar = SimBarrier(sim, parties=1, cost_per_party=0.0)

        def member():
            yield from bar.wait()
            return sim.now

        p = sim.process(member())
        sim.run()
        assert p.value == 0.0

    def test_invalid_parties_rejected(self):
        with pytest.raises(ConfigurationError):
            SimBarrier(Simulator(), parties=0)
