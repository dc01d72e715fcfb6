"""Collective-operation tests: barrier, allreduce, communicator dup."""

import pytest

from repro.mpi import Cluster


def _run(program, nranks, **kwargs):
    cluster = Cluster(nranks=nranks, **kwargs)
    return cluster.run(program)


class TestBarrier:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 5, 8])
    def test_barrier_synchronizes(self, nranks):
        def program(ctx):
            # Stagger arrival; everyone leaves at (or after) the last.
            yield ctx.sim.timeout(ctx.rank * 1e-3)
            yield from ctx.comm.barrier(ctx.main)
            return ctx.sim.now

        results = _run(program, nranks)
        latest_arrival = (nranks - 1) * 1e-3
        assert all(t >= latest_arrival for t in results)

    def test_back_to_back_barriers_do_not_cross_match(self):
        def program(ctx):
            for _ in range(5):
                yield from ctx.comm.barrier(ctx.main)
            return "ok"

        assert _run(program, 4) == ["ok"] * 4


class TestAllreduce:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])  # powers of two
    def test_sum_recursive_doubling(self, nranks):
        def program(ctx):
            value = yield from ctx.comm.allreduce(ctx.main, 8,
                                                  value=float(ctx.rank))
            return value

        results = _run(program, nranks)
        assert results == [float(sum(range(nranks)))] * nranks

    @pytest.mark.parametrize("nranks", [3, 5, 6, 7])
    def test_sum_non_power_of_two_fallback(self, nranks):
        def program(ctx):
            value = yield from ctx.comm.allreduce(ctx.main, 8,
                                                  value=float(ctx.rank))
            return value

        results = _run(program, nranks)
        assert results == [float(sum(range(nranks)))] * nranks

    def test_custom_op(self):
        def program(ctx):
            value = yield from ctx.comm.allreduce(
                ctx.main, 8, value=ctx.rank + 1, op=max)
            return value

        assert _run(program, 4) == [4, 4, 4, 4]


class TestCommDup:
    def test_dup_separates_matching_contexts(self):
        def program(ctx):
            dup = ctx.comm.dup()
            if ctx.rank == 0:
                # Same tag on both communicators; payloads must not cross.
                yield from ctx.comm.send(ctx.main, 1, 5, 64, payload="world")
                yield from dup.send(ctx.main, 1, 5, 64, payload="dup")
            else:
                s_dup = yield from dup.recv(ctx.main, 0, 5, 64)
                s_world = yield from ctx.comm.recv(ctx.main, 0, 5, 64)
                return (s_world.payload, s_dup.payload)

        cluster = Cluster(nranks=2)
        results = cluster.run(program)
        assert results[1] == ("world", "dup")

    def test_dup_ids_agree_across_ranks(self):
        def program(ctx):
            yield from ctx.comm.barrier(ctx.main)
            dup = ctx.comm.dup()
            return dup.comm_id

        cluster = Cluster(nranks=4)
        ids = cluster.run(program)
        assert len(set(ids)) == 1
        assert ids[0] != 0
