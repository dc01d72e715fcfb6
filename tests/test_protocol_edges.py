"""Protocol edge cases: self-sends, zero-ish sizes, payloads everywhere,
intra-node paths, ordering across protocols."""

import pytest

from repro.mpi import Cluster, ThreadingMode


class TestSelfSend:
    def test_rank_can_message_itself(self):
        def program(ctx):
            sreq = yield from ctx.comm.isend(ctx.main, ctx.rank, 7, 64,
                                             payload="me")
            status = yield from ctx.comm.recv(ctx.main, ctx.rank, 7, 64)
            yield sreq.wait()
            return status.payload

        assert Cluster(nranks=1).run(program) == ["me"]

    def test_self_rendezvous(self):
        big = 1 << 20

        def program(ctx):
            rreq = yield from ctx.comm.irecv(ctx.main, 0, 3, big)
            sreq = yield from ctx.comm.isend(ctx.main, 0, 3, big,
                                             payload="large-self")
            yield rreq.wait()
            yield sreq.wait()
            return rreq.status.payload

        assert Cluster(nranks=1).run(program) == ["large-self"]


class TestSmallAndOddSizes:
    @pytest.mark.parametrize("nbytes", [1, 2, 3, 63, 64, 65, 4097])
    def test_odd_sizes_transfer(self, nbytes):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 1, nbytes)
            else:
                status = yield from ctx.comm.recv(ctx.main, 0, 1, nbytes)
                return status.nbytes

        assert Cluster(nranks=2).run(program)[1] == nbytes

    def test_odd_partition_split_transfers_fully(self):
        """10 bytes over 3 partitions: sizes 4/3/3 must all arrive."""
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 10, 3)
                yield from ps.start(main)
                yield from ps.pready_range(main, 0, 2)
                yield from ps.wait(main)
                return ps.sizes
            pr = yield from comm.precv_init(main, 0, 5, 10, 3)
            yield from pr.start(main)
            yield from pr.wait(main)
            return pr.arrived_count

        results = Cluster(nranks=2).run(program)
        assert results[0] == [4, 3, 3]
        assert results[1] == 3


class TestPartitionedPayloads:
    def test_arrival_events_carry_timestamps(self):
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 2)
                yield from ps.start(main)
                yield from ps.pready(main, 0)
                yield ctx.sim.timeout(1e-3)
                yield from ps.pready(main, 1)
                yield from ps.wait(main)
            else:
                pr = yield from comm.precv_init(main, 0, 5, 4096, 2)
                yield from pr.start(main)
                yield from pr.wait(main)
                t0 = pr.arrived_event(0).value[0]
                t1 = pr.arrived_event(1).value[0]
                return t1 - t0

        gap = Cluster(nranks=2).run(program)[1]
        assert gap == pytest.approx(1e-3, rel=0.2)


class TestCrossProtocolOrdering:
    def test_eager_and_rendezvous_same_envelope_stay_ordered(self):
        """A small (eager) then large (rendezvous) message on one envelope
        must match receives in posting order despite different protocols."""
        small, large = 1024, 1 << 20

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 9, small,
                                         payload="first")
                yield from ctx.comm.send(ctx.main, 1, 9, large,
                                         payload="second")
            else:
                a = yield from ctx.comm.recv(ctx.main, 0, 9, large)
                b = yield from ctx.comm.recv(ctx.main, 0, 9, large)
                return (a.payload, b.payload)

        assert Cluster(nranks=2).run(program)[1] == ("first", "second")

    def test_interleaved_partitioned_and_pt2pt(self):
        """Partitioned traffic shares the NIC with plain point-to-point
        without corrupting either."""
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 1 << 16, 4)
                yield from ps.start(main)
                yield from ps.pready(main, 0)
                yield from comm.send(main, 1, 77, 2048, payload="mixed")
                yield from ps.pready_range(main, 1, 3)
                yield from ps.wait(main)
            else:
                pr = yield from comm.precv_init(main, 0, 5, 1 << 16, 4)
                yield from pr.start(main)
                status = yield from comm.recv(main, 0, 77, 2048)
                yield from pr.wait(main)
                return (status.payload, pr.arrived_count)

        assert Cluster(nranks=2).run(program)[1] == ("mixed", 4)


class TestThreadingModeAcrossFeatures:
    def test_partitioned_under_serialized_single_thread(self):
        """A single-threaded partitioned user works under SERIALIZED."""
        def program(ctx):
            comm, main = ctx.comm, ctx.main
            if ctx.rank == 0:
                ps = yield from comm.psend_init(main, 1, 5, 4096, 2)
                yield from ps.start(main)
                yield from ps.pready_range(main, 0, 1)
                yield from ps.wait(main)
            else:
                pr = yield from comm.precv_init(main, 0, 5, 4096, 2)
                yield from pr.start(main)
                yield from pr.wait(main)
                return pr.arrived_count

        results = Cluster(nranks=2,
                          mode=ThreadingMode.SERIALIZED).run(program)
        assert results[1] == 2
