"""Integration tests for point-to-point semantics on the simulated runtime."""

import pytest

from repro.errors import DeadlockError, MPIError, TruncationError
from repro.mpi import ANY_SOURCE, ANY_TAG, Cluster, waitall
from repro.network import NIAGARA_EDR


def _run(program, nranks=2, **kwargs):
    cluster = Cluster(nranks=nranks, **kwargs)
    return cluster, cluster.run(program)


class TestBlockingSendRecv:
    def test_eager_payload_delivery(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 7, 64, payload="hi")
            else:
                status = yield from ctx.comm.recv(ctx.main, 0, 7, 64)
                return (status.payload, status.source, status.tag,
                        status.nbytes)

        _, results = _run(program)
        assert results[1] == ("hi", 0, 7, 64)

    def test_rendezvous_payload_delivery(self):
        big = NIAGARA_EDR.eager_threshold * 4

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 3, big, payload="big")
            else:
                status = yield from ctx.comm.recv(ctx.main, 0, 3, big)
                return status.payload

        _, results = _run(program)
        assert results[1] == "big"

    def test_rendezvous_takes_longer_than_eager(self):
        times = {}

        def make_program(nbytes, key):
            def program(ctx):
                if ctx.rank == 0:
                    yield from ctx.comm.send(ctx.main, 1, 1, nbytes)
                else:
                    yield from ctx.comm.recv(ctx.main, 0, 1, nbytes)
                    times[key] = ctx.sim.now
            return program

        _run(make_program(1024, "eager"))
        _run(make_program(1 << 20, "rendezvous"))
        assert times["rendezvous"] > times["eager"]

    def test_larger_messages_take_longer(self):
        def timed(nbytes):
            done = {}

            def program(ctx):
                if ctx.rank == 0:
                    yield from ctx.comm.send(ctx.main, 1, 1, nbytes)
                else:
                    yield from ctx.comm.recv(ctx.main, 0, 1, nbytes)
                    done["t"] = ctx.sim.now

            _run(program)
            return done["t"]

        assert timed(4 << 20) > timed(1 << 20) > timed(1 << 10)


class TestNonBlocking:
    def test_isend_irecv_waitall(self):
        def program(ctx):
            reqs = []
            if ctx.rank == 0:
                for tag in range(4):
                    reqs.append((yield from ctx.comm.isend(
                        ctx.main, 1, tag, 256, payload=tag)))
                yield waitall(ctx.sim, reqs)
                return None
            for tag in range(4):
                reqs.append((yield from ctx.comm.irecv(
                    ctx.main, 0, tag, 256)))
            yield waitall(ctx.sim, reqs)
            return [r.status.payload for r in reqs]

        _, results = _run(program)
        assert results[1] == [0, 1, 2, 3]

    def test_test_polls_without_blocking(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 1, 64)
            else:
                req = yield from ctx.comm.irecv(ctx.main, 0, 1, 64)
                polled_early = req.test()
                yield req.wait()
                return (polled_early, req.test())

        _, results = _run(program)
        early, late = results[1]
        assert late is True

    def test_non_overtaking_same_envelope(self):
        """Messages with equal envelopes arrive in send order (MPI 3.5)."""
        def program(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield from ctx.comm.send(ctx.main, 1, 9, 64, payload=i)
            else:
                got = []
                for _ in range(5):
                    status = yield from ctx.comm.recv(ctx.main, 0, 9, 64)
                    got.append(status.payload)
                return got

        _, results = _run(program)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_unexpected_message_path(self):
        """Send completes before the receive is posted; matching still works."""
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 4, 128, payload="u")
            else:
                yield ctx.sim.timeout(1e-3)  # let the message land first
                status = yield from ctx.comm.recv(ctx.main, 0, 4, 128)
                return status.payload

        _, results = _run(program)
        assert results[1] == "u"

    def test_unexpected_rendezvous_path(self):
        big = 1 << 20

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 4, big, payload="R")
            else:
                yield ctx.sim.timeout(1e-3)
                status = yield from ctx.comm.recv(ctx.main, 0, 4, big)
                return status.payload

        _, results = _run(program)
        assert results[1] == "R"


class TestWildcards:
    def test_any_source(self):
        def program(ctx):
            if ctx.rank == 2:
                statuses = []
                for _ in range(2):
                    s = yield from ctx.comm.recv(ctx.main, ANY_SOURCE, 5,
                                                 64)
                    statuses.append(s.source)
                return sorted(statuses)
            yield from ctx.comm.send(ctx.main, 2, 5, 64)

        _, results = _run(program, nranks=3)
        assert results[2] == [0, 1]

    def test_any_tag(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 42, 64, payload="t")
            else:
                status = yield from ctx.comm.recv(ctx.main, 0, ANY_TAG, 64)
                return status.tag

        _, results = _run(program)
        assert results[1] == 42


class TestErrors:
    def test_truncation_raises(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 1, 1024)
            else:
                yield from ctx.comm.recv(ctx.main, 0, 1, 64)

        with pytest.raises(TruncationError):
            _run(program)

    def test_bad_peer_rank_raises(self):
        def program(ctx):
            yield from ctx.comm.send(ctx.main, 5, 1, 64)

        with pytest.raises(MPIError):
            _run(program)

    def test_unmatched_recv_deadlocks(self):
        def program(ctx):
            if ctx.rank == 1:
                yield from ctx.comm.recv(ctx.main, 0, 1, 64)

        with pytest.raises(DeadlockError) as err:
            _run(program)
        assert "rank1" in str(err.value)

    def test_mismatched_tags_deadlock(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 1, 1 << 20)
            else:
                yield from ctx.comm.recv(ctx.main, 0, 2, 1 << 20)

        with pytest.raises(DeadlockError):
            _run(program)


class TestIntraNode:
    def test_intra_node_faster_than_inter_node(self):
        from repro.network import Placement
        times = {}

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(ctx.main, 1, 1, 4096)
            else:
                yield from ctx.comm.recv(ctx.main, 0, 1, 4096)
                times[ctx.cluster.fabric.placement.nnodes] = ctx.sim.now

        _run(program)  # one rank per node
        _run(program, placement=Placement.block(2, ranks_per_node=2))
        assert times[1] < times[2]


class TestDeterminism:
    def test_identical_runs_produce_identical_times(self):
        def run_once():
            times = {}

            def program(ctx):
                if ctx.rank == 0:
                    for i in range(3):
                        yield from ctx.comm.send(ctx.main, 1, i, 1 << 16)
                else:
                    for i in range(3):
                        yield from ctx.comm.recv(ctx.main, 0, i, 1 << 16)
                    times["end"] = ctx.sim.now

            _run(program, seed=11)
            return times["end"]

        assert run_once() == run_once()
