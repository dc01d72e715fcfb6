"""Collective operations built from point-to-point messages.

Timing-level implementations of the collectives the pattern benchmarks and
the proxy application need: dissemination barrier and recursive-doubling
allreduce (with a naive fallback off powers of two).
Each collective draws its tags from a reserved internal tag space,
sequenced per communicator so back-to-back collectives never cross-match.
"""

from __future__ import annotations

from ..errors import MPIError
from .request import waitall

__all__ = ["INTERNAL_TAG_BASE", "barrier", "allreduce"]

#: Tags at or above this value are reserved for internal (collective) use.
INTERNAL_TAG_BASE = 1 << 28
#: Tag stride reserved per collective invocation (max rounds per op).
_MAX_ROUNDS = 64


def _coll_tag(comm, round_idx: int) -> int:
    if round_idx >= _MAX_ROUNDS:  # pragma: no cover - 2**64 ranks needed
        raise MPIError("collective exceeded the reserved round budget")
    return INTERNAL_TAG_BASE + comm._coll_seq * _MAX_ROUNDS + round_idx


def barrier(comm, tc):
    """Generator: dissemination barrier over ``comm``.

    ``ceil(log2(size))`` rounds; in round ``k`` rank ``r`` signals
    ``r + 2**k`` and waits for ``r - 2**k`` (mod size).
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    comm._coll_seq += 1
    dist, round_idx = 1, 0
    while dist < size:
        tag = _coll_tag(comm, round_idx)
        sreq = yield from comm.isend(tc, (rank + dist) % size, tag, 1)
        rreq = yield from comm.irecv(tc, (rank - dist) % size, tag, 1)
        yield from comm.proc.blocking_wait(
            tc, waitall(comm.sim, [sreq, rreq]))
        dist <<= 1
        round_idx += 1


def allreduce(comm, tc, nbytes: int, value: float = 0.0, op=None):
    """Generator: allreduce of a scalar ``value`` carried on ``nbytes``
    messages; returns the reduced value at every rank.

    Power-of-two sizes use recursive doubling; otherwise rank 0 gathers,
    reduces and sends the result back to every rank (documented
    simplification — the patterns only need timing fidelity, not an
    optimal non-power-of-two algorithm).
    """
    size, rank = comm.size, comm.rank
    op = op or (lambda a, b: a + b)
    if size == 1:
        return value
    if size & (size - 1) == 0:
        comm._coll_seq += 1
        acc = value
        mask, round_idx = 1, 0
        while mask < size:
            partner = rank ^ mask
            tag = _coll_tag(comm, round_idx)
            sreq = yield from comm.isend(tc, partner, tag, nbytes,
                                         payload=acc)
            rreq = yield from comm.irecv(tc, partner, tag, nbytes)
            yield from comm.proc.blocking_wait(
                tc, waitall(comm.sim, [sreq, rreq]))
            acc = op(acc, rreq.status.payload)
            mask <<= 1
            round_idx += 1
        return acc
    # Fallback: reduce at rank 0, then send the result to every rank.
    comm._coll_seq += 1
    tag = _coll_tag(comm, 0)
    if rank != 0:
        yield from comm.send(tc, 0, tag, nbytes, payload=value)
        status = yield from comm.recv(tc, 0, tag, nbytes)
        return status.payload
    acc = value
    for src in range(1, size):
        status = yield from comm.recv(tc, src, tag, nbytes)
        acc = op(acc, status.payload)
    for dst in range(1, size):
        yield from comm.send(tc, dst, tag, nbytes, payload=acc)
    return acc
