"""Partitioned point-to-point: lifecycle, epochs, semantics, errors."""

import pytest

from repro.errors import MPIError, PartitionError, RequestStateError
from repro.mpi import Cluster, ANY_TAG
from repro.partitioned import (IMPL_MPIPCL, IMPL_NATIVE, partition_sizes)


def _run(program, nranks=2, **kwargs):
    cluster = Cluster(nranks=nranks, **kwargs)
    return cluster, cluster.run(program)


class TestPartitionSizes:
    def test_even_split(self):
        assert partition_sizes(100, 4) == [25, 25, 25, 25]

    def test_remainder_spread_over_leading_partitions(self):
        assert partition_sizes(10, 3) == [4, 3, 3]
        assert sum(partition_sizes(10, 3)) == 10

    def test_one_partition(self):
        assert partition_sizes(7, 1) == [7]

    def test_too_many_partitions_rejected(self):
        with pytest.raises(PartitionError):
            partition_sizes(3, 4)

    def test_bad_counts_rejected(self):
        with pytest.raises(PartitionError):
            partition_sizes(10, 0)
        with pytest.raises(PartitionError):
            partition_sizes(-1, 1)


def _basic_transfer(impl, nbytes=1 << 16, partitions=4, epochs=1):
    """One sender/receiver pair pushing `epochs` epochs of data."""
    def program(ctx):
        comm, main = ctx.comm, ctx.main
        if ctx.rank == 0:
            ps = yield from comm.psend_init(main, 1, 5, nbytes, partitions,
                                            impl=impl)
            for _ in range(epochs):
                yield from ps.start(main)

                def worker(tc):
                    yield from tc.compute(1e-4)
                    yield from ps.pready(tc, tc.thread_id)

                team = yield from ctx.fork(partitions, worker)
                yield from team.join()
                yield from ps.wait(main)
            return ps.epoch
        pr = yield from comm.precv_init(main, 0, 5, nbytes, partitions,
                                        impl=impl)
        arrivals = []
        for _ in range(epochs):
            yield from pr.start(main)
            yield from pr.wait(main)
            arrivals.append(pr.arrived_count)
        return arrivals

    return program


class TestLifecycle:
    @pytest.mark.parametrize("impl", [IMPL_MPIPCL, IMPL_NATIVE])
    def test_single_epoch_transfer(self, impl):
        _, results = _run(_basic_transfer(impl))
        assert results[0] == 1
        assert results[1] == [4]

    @pytest.mark.parametrize("impl", [IMPL_MPIPCL, IMPL_NATIVE])
    def test_buffer_reuse_across_epochs(self, impl):
        _, results = _run(_basic_transfer(impl, epochs=3))
        assert results[0] == 3
        assert results[1] == [4, 4, 4]

    def test_single_partition_degenerates_to_persistent(self):
        _, results = _run(_basic_transfer(IMPL_MPIPCL, partitions=1))
        assert results[1] == [1]

    def test_large_rendezvous_partitions(self):
        _, results = _run(_basic_transfer(IMPL_MPIPCL, nbytes=4 << 20,
                                          partitions=4))
        assert results[1] == [4]

    def test_parrived_polling(self):
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 2)
                yield from ps.start(main)
                yield from ps.pready(main, 0)
                yield ctx.sim.timeout(1e-3)
                yield from ps.pready(main, 1)
                yield from ps.wait(main)
                return None
            pr = yield from comm.precv_init(main, 0, 5, 4096, 2)
            yield from pr.start(main)
            yield ctx.sim.timeout(5e-4)
            early = yield from pr.parrived(main, 0)
            late = yield from pr.parrived(main, 1)
            yield from pr.wait(main)
            final = yield from pr.parrived(main, 1)
            return (early, late, final)

        _, results = _run(program)
        early, late, final = results[1]
        assert early is True      # sent immediately, arrived within 0.5 ms
        assert late is False      # not yet pready at 0.5 ms
        assert final is True

    def test_pready_range(self):
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 4)
                yield from ps.start(main)
                yield from ps.pready_range(main, 0, 3)
                yield from ps.wait(main)
            else:
                pr = yield from comm.precv_init(main, 0, 5, 4096, 4)
                yield from pr.start(main)
                yield from pr.wait(main)
                return pr.arrived_count

        _, results = _run(program)
        assert results[1] == 4

    def test_out_of_order_pready(self):
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 4)
                yield from ps.start(main)
                for i in (2, 0, 3, 1):
                    yield from ps.pready(main, i)
                yield from ps.wait(main)
            else:
                pr = yield from comm.precv_init(main, 0, 5, 4096, 4)
                yield from pr.start(main)
                yield from pr.wait(main)
                return [pr.arrived_event(i).triggered for i in range(4)]

        _, results = _run(program)
        assert results[1] == [True] * 4

    def test_sender_races_ahead_of_receiver_start(self):
        """Partitions arriving before the receiver's start are buffered."""
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 2)
                yield from ps.start(main)
                yield from ps.pready(main, 0)
                yield from ps.pready(main, 1)
                yield from ps.wait(main)
            else:
                pr = yield from comm.precv_init(main, 0, 5, 4096, 2)
                yield ctx.sim.timeout(2e-3)  # start long after arrival
                yield from pr.start(main)
                yield from pr.wait(main)
                return pr.arrived_count

        _, results = _run(program)
        assert results[1] == 2


class TestBindingValidation:
    def _init_pair(self, send_kwargs, recv_kwargs):
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, **send_kwargs)
                yield from ps.start(main)
            else:
                pr = yield from comm.precv_init(main, 0, 5, **recv_kwargs)
                yield from pr.start(main)

        return program

    def test_partition_count_mismatch_raises(self):
        program = self._init_pair(dict(nbytes=4096, partitions=4),
                                  dict(nbytes=4096, partitions=8))
        with pytest.raises(PartitionError, match="count mismatch"):
            _run(program)

    def test_size_mismatch_raises(self):
        program = self._init_pair(dict(nbytes=4096, partitions=4),
                                  dict(nbytes=8192, partitions=4))
        with pytest.raises(PartitionError, match="size mismatch"):
            _run(program)

    def test_impl_mismatch_raises(self):
        program = self._init_pair(
            dict(nbytes=4096, partitions=4, impl=IMPL_MPIPCL),
            dict(nbytes=4096, partitions=4, impl=IMPL_NATIVE))
        with pytest.raises(PartitionError, match="implementation"):
            _run(program)

    def test_wildcard_tag_rejected(self):
        def program(ctx):
            yield from ctx.comm.psend_init(ctx.main, 1, ANY_TAG, 4096, 4)

        with pytest.raises(MPIError, match="wildcard"):
            _run(program)

    def test_unknown_impl_rejected(self):
        def program(ctx):
            yield from ctx.comm.psend_init(ctx.main, 1, 5, 4096, 4,
                                           impl="bogus")

        with pytest.raises(PartitionError, match="unknown implementation"):
            _run(program)


class TestStateErrors:
    def test_pready_before_start_raises(self):
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 2)
                yield from ps.pready(main, 0)
            else:
                yield from comm.precv_init(main, 0, 5, 4096, 2)

        with pytest.raises(RequestStateError, match="start"):
            _run(program)

    def test_double_pready_raises(self):
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 2)
                yield from ps.start(main)
                yield from ps.pready(main, 0)
                yield from ps.pready(main, 0)
            else:
                pr = yield from comm.precv_init(main, 0, 5, 4096, 2)
                yield from pr.start(main)

        with pytest.raises(RequestStateError, match="twice"):
            _run(program)

    def test_out_of_range_partition_raises(self):
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 2)
                yield from ps.start(main)
                yield from ps.pready(main, 7)
            else:
                pr = yield from comm.precv_init(main, 0, 5, 4096, 2)
                yield from pr.start(main)

        with pytest.raises(PartitionError, match="out of range"):
            _run(program)

    def test_start_while_active_raises(self):
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 2)
                yield from ps.start(main)
                yield from ps.start(main)
            else:
                yield from comm.precv_init(main, 0, 5, 4096, 2)

        with pytest.raises(RequestStateError, match="active"):
            _run(program)

    def test_wait_before_start_raises(self):
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 2)
                yield from ps.wait(main)
            else:
                yield from comm.precv_init(main, 0, 5, 4096, 2)

        with pytest.raises(RequestStateError, match="wait"):
            _run(program)


class TestImplementationDifferences:
    def test_native_completes_faster_than_mpipcl(self):
        times = {}

        def make(impl):
            def program(ctx):
                comm, main = ctx.comm, ctx.main
                if ctx.rank == 0:
                    ps = yield from comm.psend_init(main, 1, 5, 1 << 16, 8,
                                                    impl=impl)
                    yield from ps.start(main)

                    def worker(tc):
                        yield from ps.pready(tc, tc.thread_id)

                    team = yield from ctx.fork(8, worker)
                    yield from team.join()
                    yield from ps.wait(main)
                else:
                    pr = yield from comm.precv_init(main, 0, 5, 1 << 16, 8,
                                                    impl=impl)
                    yield from pr.start(main)
                    yield from pr.wait(main)
                    times[impl] = ctx.sim.now

            return program

        _run(make(IMPL_MPIPCL))
        _run(make(IMPL_NATIVE))
        assert times[IMPL_NATIVE] < times[IMPL_MPIPCL]

    def test_obs_events_emitted(self):
        cluster = Cluster(nranks=2)
        mem = cluster.obs.record("part.pready", "part.arrived")
        cluster.run(_basic_transfer(IMPL_MPIPCL))
        assert len(mem.filter("part.pready")) == 4
        assert len(mem.filter("part.arrived")) == 4
        assert mem.first("part.pready").time <= \
            mem.first("part.arrived").time


class TestPreadyList:
    def test_pready_list_delivers_all(self):
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 4)
                yield from ps.start(main)
                yield from ps.pready_list(main, [3, 1, 0, 2])
                yield from ps.wait(main)
            else:
                pr = yield from comm.precv_init(main, 0, 5, 4096, 4)
                yield from pr.start(main)
                yield from pr.wait(main)
                return pr.arrived_count

        _, results = _run(program)
        assert results[1] == 4

    def test_duplicates_rejected(self):
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 4)
                yield from ps.start(main)
                yield from ps.pready_list(main, [0, 0])
            else:
                pr = yield from comm.precv_init(main, 0, 5, 4096, 4)
                yield from pr.start(main)

        with pytest.raises(PartitionError, match="duplicate"):
            _run(program)
