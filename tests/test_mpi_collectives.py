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
