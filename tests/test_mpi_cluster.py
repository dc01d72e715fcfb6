"""Cluster driver: configuration validation and run semantics."""

import pytest

from repro.errors import ConfigurationError, DeadlockError
from repro.machine import NIAGARA_NODE
from repro.mpi import Cluster, DEFAULT_COSTS
from repro.network import NIAGARA_EDR


class TestConstruction:
    def test_zero_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(nranks=0)

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(nranks=1,
                    spec=NIAGARA_NODE.with_overrides(cores_per_socket=0))

    def test_bad_network_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(nranks=1,
                    inter_node=NIAGARA_EDR.with_overrides(bandwidth=-1))

    def test_bad_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster(nranks=1,
                    costs=DEFAULT_COSTS.with_overrides(lock_hold=-1.0))

    def test_contexts_expose_rank_identity(self):
        cluster = Cluster(nranks=3)
        assert [c.rank for c in cluster.contexts] == [0, 1, 2]
        assert all(c.size == 3 for c in cluster.contexts)
        assert all(c.comm.comm_id == 0 for c in cluster.contexts)

    def test_main_thread_on_nic_socket(self):
        cluster = Cluster(nranks=1)
        assert not NIAGARA_NODE.is_remote_to_nic(
            cluster.contexts[0].main.core)


class TestRun:
    def test_results_in_rank_order(self):
        def program(ctx):
            yield ctx.sim.timeout(1e-6 * (ctx.size - ctx.rank))
            return ctx.rank * 10

        assert Cluster(nranks=4).run(program) == [0, 10, 20, 30]

    def test_run_on_subset_of_ranks(self):
        def program(ctx):
            yield ctx.sim.timeout(1e-6)
            return ctx.rank

        cluster = Cluster(nranks=4)
        assert cluster.run(program, ranks=[1, 3]) == [1, 3]

    def test_stuck_program_is_reported_as_a_deadlock(self):
        def program(ctx):
            yield ctx.sim.timeout(1e-6)
            if ctx.rank == 1:
                yield ctx.sim.event()  # never triggered

        with pytest.raises(DeadlockError, match="rank1"):
            Cluster(nranks=2).run(program)

    def test_program_exception_propagates(self):
        def program(ctx):
            yield ctx.sim.timeout(1e-6)
            if ctx.rank == 1:
                raise RuntimeError("rank 1 exploded")

        with pytest.raises(RuntimeError, match="rank 1 exploded"):
            Cluster(nranks=2).run(program)

    def test_now_advances(self):
        cluster = Cluster(nranks=1)

        def program(ctx):
            yield ctx.sim.timeout(5e-3)

        cluster.run(program)
        assert cluster.now == pytest.approx(5e-3)

    def test_sequential_runs_share_the_clock(self):
        cluster = Cluster(nranks=2)

        def ping(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 1, 64)
            else:
                yield from ctx.comm.recv(ctx.main, 0, 1, 64)

        cluster.run(ping)
        t1 = cluster.now
        cluster.run(ping)
        assert cluster.now > t1


class TestRankContextHelpers:
    def test_rng_streams_differ_per_rank(self):
        cluster = Cluster(nranks=2)
        a = cluster.contexts[0].rng("x").uniform(size=4)
        b = cluster.contexts[1].rng("x").uniform(size=4)
        assert a != b

    def test_invalidate_cache_charges_time(self):
        cluster = Cluster(nranks=1)

        def program(ctx):
            t0 = ctx.sim.now
            yield from ctx.invalidate_cache()
            return ctx.sim.now - t0

        (cost,) = cluster.run(program)
        expected = 2 * NIAGARA_NODE.llc_bytes / NIAGARA_NODE.memory_bandwidth
        assert cost == pytest.approx(expected)

    def test_event_bus_shared_across_ranks(self):
        cluster = Cluster(nranks=2)
        mem = cluster.obs.record("send.complete", "recv.complete")

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 1, 64)
            else:
                yield from ctx.comm.recv(ctx.main, 0, 1, 64)

        cluster.run(program)
        assert mem.filter("send.complete")
        assert mem.filter("recv.complete")


class TestSeedReproducibility:
    def test_same_seed_bitwise_identical(self):
        def build_and_run(seed):
            from repro.noise import UniformNoise
            cluster = Cluster(nranks=1, seed=seed)

            def program(ctx):
                rng = ctx.rng("noise")
                draws = UniformNoise(10.0).compute_times(rng, 8, 1e-3)
                for d in draws:
                    yield ctx.sim.timeout(float(d))
                return ctx.sim.now

            return cluster.run(program)[0]

        assert build_and_run(5) == build_and_run(5)
        assert build_and_run(5) != build_and_run(6)
