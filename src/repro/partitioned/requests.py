"""Partitioned request state machines (MPI 4.0 §4.2 semantics).

The lifecycle mirrors the standard:

``psend_init``/``precv_init`` (serial code, matching happens **here**)
→ ``start`` (arm an epoch) → threads call ``pready(i)`` / poll
``parrived(i)`` → ``wait`` (complete the epoch) → ``start`` again (buffer
reuse), exactly the flow of the paper's Figure 1.

The implementation is MPIPCL, the layered library the paper evaluates:
every ``pready`` issues an internal point-to-point send (lock-protected
under ``MPI_THREAD_MULTIPLE``, eager or rendezvous by partition size).

Partition counts must match between the two sides (an MPIPCL restriction
the paper notes in §6.1); we verify it at bind time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import PartitionError, RequestStateError
from ..obs.kinds import (PART_ARRIVED, PART_PARRIVED, PART_PREADY,
                         PART_RECV_EPOCH_COMPLETE, PART_RECV_START,
                         PART_SEND_EPOCH_COMPLETE, PART_SEND_INJECTED,
                         PART_SEND_START, PART_START, PART_WAIT)
from ..sim import Event
from ..mpi.protocol import Frame, FrameKind

__all__ = ["PartitionedSendRequest", "PartitionedRecvRequest",
           "partition_sizes"]


def partition_sizes(nbytes: int, partitions: int) -> List[int]:
    """Split ``nbytes`` into ``partitions`` near-equal chunks.

    Every partition gets ``nbytes // partitions`` bytes and the first
    ``nbytes % partitions`` partitions get one extra byte, so sizes differ
    by at most one byte and sum exactly to ``nbytes``.
    """
    if partitions < 1:
        raise PartitionError(f"partitions must be >= 1, got {partitions}")
    if nbytes < 0:
        raise PartitionError(f"negative buffer size: {nbytes}")
    if nbytes < partitions:
        raise PartitionError(
            f"cannot split {nbytes} B into {partitions} partitions")
    base, rem = divmod(nbytes, partitions)
    return [base + (1 if i < rem else 0) for i in range(partitions)]


class _PartitionedBase:
    """State shared by both sides of a partitioned transfer."""

    #: ``"send"`` or ``"recv"``; set by the concrete subclass and carried
    #: on every lifecycle event this request emits.
    side = ""

    def __init__(self, proc, comm_id: int, peer_rank: int, tag: int,
                 nbytes: int, partitions: int, bufkey: Optional[str]):
        self.proc = proc
        self.sim = proc.sim
        self.comm_id = comm_id
        self.peer_rank = peer_rank
        self.tag = tag
        self.nbytes = nbytes
        self.partitions = partitions
        self.sizes = partition_sizes(nbytes, partitions)
        self.bufkey = bufkey or (f"r{proc.rank}.c{comm_id}.t{tag}."
                                 f"{type(self).__name__}")
        self.epoch = 0
        self.active = False
        #: The bound receive half (send side only; see :meth:`bind`).
        self.peer: Any = None
        self._epoch_done: Optional[Event] = None
        #: Triggers when init-time matching binds us to the remote half;
        #: start() blocks on it, as a real first transfer would block on
        #: the runtime's internal handshake.
        self._bound_event: Event = Event(self.sim)

    # -- binding (performed by the cluster registry at init time) --------
    def bind(self, peer: "_PartitionedBase") -> None:
        """Pair this request with its remote counterpart.

        This is the once-only matching step; the MPIPCL restriction that
        both sides declare the same partition count is enforced here.
        Only the send half keeps its peer (its frames address the
        receive half); the receive half needs nothing from the sender, so
        the pair holds no reference cycle.
        """
        if self.bound:
            raise RequestStateError("partitioned request already bound")
        if peer.partitions != self.partitions:
            raise PartitionError(
                f"partition count mismatch: {self.partitions} vs "
                f"{peer.partitions} (MPIPCL requires equal counts)")
        if peer.nbytes != self.nbytes:
            raise PartitionError(
                f"buffer size mismatch: {self.nbytes} vs {peer.nbytes}")
        if self.side == "send":
            self.peer = peer
        self._bound_event.succeed()

    @property
    def bound(self) -> bool:
        """True once init-time matching paired this request with its peer."""
        return self._bound_event.triggered

    def _await_bound(self):
        """Generator: block until the remote init half has been matched."""
        if not self.bound:
            yield self._bound_event

    def _require_inactive(self) -> None:
        if self.active:
            raise RequestStateError(
                "start() on an active partitioned request (wait first)")

    def _check_index(self, partition: int) -> None:
        if not (0 <= partition < self.partitions):
            raise PartitionError(
                f"partition {partition} out of range "
                f"[0, {self.partitions})")

    def _check_partition(self, partition: int) -> None:
        self._check_index(partition)
        if not self.active:
            raise RequestStateError(
                "partition operation outside an active epoch (call start)")

    def wait(self, tc):
        """Generator: complete the current epoch (``MPI_Wait``).

        Charges one call overhead, then blocks until every partition of the
        epoch has been transferred; returns the completion time.
        """
        self.proc.obs.emit(PART_WAIT, self.sim.now, self.proc.rank,
                           self.side, self.epoch)
        if self._epoch_done is None:
            raise RequestStateError("wait() before start()")
        yield from self.proc._mpi_entry(tc, self.proc.costs.call_overhead)
        done = self._epoch_done
        if not done.triggered:
            # A blocked MPI_Wait spin-polls like any other blocking call
            # and contributes progress contention under MULTIPLE.
            yield from self.proc.blocking_wait(tc, done)
        self.active = False
        return done.value

    def test(self) -> bool:
        """Instantaneous epoch-completion poll (``MPI_Test``)."""
        return self._epoch_done is not None and self._epoch_done.triggered


class PartitionedSendRequest(_PartitionedBase):
    """Send side: ``psend_init`` → ``start`` → ``pready``* → ``wait``."""

    side = "send"

    def __init__(self, proc, comm_id: int, dest: int, tag: int,
                 nbytes: int, partitions: int,
                 bufkey: Optional[str] = None):
        super().__init__(proc, comm_id, dest, tag, nbytes, partitions,
                         bufkey)
        self._ready: List[bool] = []
        self._injected = 0

    @property
    def dest(self) -> int:
        """Destination rank."""
        return self.peer_rank

    def start(self, tc):
        """Generator: arm a new send epoch."""
        self.proc.obs.emit(PART_START, self.sim.now, self.proc.rank,
                           self.side, self.epoch)
        yield from self._await_bound()
        self._require_inactive()
        if self._epoch_done is not None and not self._epoch_done.triggered:
            raise RequestStateError("start() before previous epoch's wait()")
        self.epoch += 1
        self.active = True
        self._ready = [False] * self.partitions
        self._injected = 0
        self._epoch_done = Event(self.sim)
        cost = (self.proc.costs.start_cost
                + self.partitions * self.proc.costs.start_cost_per_partition)
        yield from self.proc._mpi_entry(tc, cost)
        self.proc.obs.emit(PART_SEND_START, self.sim.now, self.proc.rank,
                           self.epoch)
        return self

    def pready(self, tc, partition: int):
        """Generator: mark one partition ready for transfer (``MPI_Pready``).

        An internal isend: full call overhead plus the library lock under
        ``MULTIPLE``.  Eager partitions also pay the buffer-read (hot/cold
        cache) cost of their bounce-buffer copy.
        """
        self.proc.obs.emit(PART_PREADY, self.sim.now, self.proc.rank,
                           partition, self.epoch)
        self._check_partition(partition)
        if self._ready[partition]:
            raise RequestStateError(
                f"pready called twice on partition {partition} in epoch "
                f"{self.epoch}")
        self._ready[partition] = True
        pbytes = self.sizes[partition]
        costs = self.proc.costs
        params = self.proc.params
        # An internal MPI_Isend on a pre-matched request.  Eager partitions
        # pay the bounce-buffer copy *outside* the library lock (memcpy
        # needs no lock), so concurrent threads overlap their copies — the
        # cold-cache amortization the paper observes in §4.2.  Rendezvous
        # partitions are zero-copy.
        eager = params.is_eager(pbytes)
        if eager:
            copy = self.proc.cache.access_time(
                f"{self.bufkey}.p{partition}", pbytes)
            if copy > 0:
                yield self.sim.sleep(copy)
        yield from self.proc._mpi_entry(
            tc, costs.pready_cost + costs.call_overhead + costs.post_cost
            + params.send_overhead)
        if eager:
            frame = Frame(FrameKind.PDATA, self.proc.rank, self.peer_rank,
                          nbytes=pbytes, preq=self.peer,
                          partition=partition, epoch=self.epoch)
            tx = self.proc.transmit(self.peer_rank, pbytes, frame)
            ep = self.epoch
            tx.injected.callbacks.append(
                lambda ev: self._partition_injected(ep, partition,
                                                    self.sim.now))
        else:
            frame = Frame(FrameKind.PRTS, self.proc.rank, self.peer_rank,
                          nbytes=pbytes, sreq=self, preq=self.peer,
                          partition=partition, epoch=self.epoch)
            self.proc.transmit(self.peer_rank, 0, frame)

    def pready_range(self, tc, lo: int, hi: int):
        """Generator: ``MPI_Pready_range`` — mark partitions [lo, hi]."""
        if lo > hi:
            raise PartitionError(f"empty pready range [{lo}, {hi}]")
        for p in range(lo, hi + 1):
            yield from self.pready(tc, p)

    def pready_list(self, tc, partitions):
        """Generator: ``MPI_Pready_list`` — mark an explicit partition set.

        Duplicates in the list are an error, matching the standard's
        each-partition-exactly-once rule per epoch.
        """
        partitions = list(partitions)
        if len(set(partitions)) != len(partitions):
            raise PartitionError(
                f"duplicate partitions in pready_list: {partitions}")
        for p in partitions:
            yield from self.pready(tc, p)

    # -- runtime hooks ----------------------------------------------------
    def _partition_injected(self, epoch: int, partition: int,
                            now: float) -> None:
        if epoch != self.epoch:
            return  # stale completion from an abandoned epoch
        self._injected += 1
        self.proc.obs.emit(PART_SEND_INJECTED, now, self.proc.rank,
                           partition, epoch)
        if self._injected == self.partitions:
            self._epoch_done.succeed(now)
            self.proc.obs.emit(PART_SEND_EPOCH_COMPLETE, now,
                               self.proc.rank, epoch)


class PartitionedRecvRequest(_PartitionedBase):
    """Receive side: ``precv_init`` → ``start`` → ``parrived``* → ``wait``."""

    side = "recv"

    def __init__(self, proc, comm_id: int, source: int, tag: int,
                 nbytes: int, partitions: int,
                 bufkey: Optional[str] = None):
        super().__init__(proc, comm_id, source, tag, nbytes, partitions,
                         bufkey)
        self._arrived_events: List[Event] = []
        self._arrived = 0
        #: Partitions that landed before our start() armed their epoch,
        #: keyed by sender epoch (MPIPCL buffers these as unexpected
        #: internal messages).
        self._early: Dict[int, List[Tuple[int, float, Any]]] = {}

    @property
    def source(self) -> int:
        """Source rank."""
        return self.peer_rank

    def start(self, tc):
        """Generator: arm a new receive epoch (posts internal receives)."""
        self.proc.obs.emit(PART_START, self.sim.now, self.proc.rank,
                           self.side, self.epoch)
        yield from self._await_bound()
        self._require_inactive()
        if self._epoch_done is not None and not self._epoch_done.triggered:
            raise RequestStateError("start() before previous epoch's wait()")
        self.epoch += 1
        self.active = True
        self._arrived_events = [Event(self.sim) for _ in range(self.partitions)]
        self._arrived = 0
        self._epoch_done = Event(self.sim)
        cost = (self.proc.costs.start_cost
                + self.partitions * self.proc.costs.start_cost_per_partition)
        yield from self.proc._mpi_entry(tc, cost)
        self.proc.obs.emit(PART_RECV_START, self.sim.now, self.proc.rank,
                           self.epoch)
        # Reconcile partitions that raced ahead of this start().
        for partition, when, payload in self._early.pop(self.epoch, []):
            self._mark_arrived(partition, when, payload)
        return self

    def parrived(self, tc, partition: int):
        """Generator: ``MPI_Parrived`` — poll one partition; returns bool.

        Thread-safe flag check: no lock even under ``MULTIPLE``.  Legal on
        an inactive request that has completed an epoch (MPI 4.0 §4.2.3:
        the flag is then true).
        """
        self.proc.obs.emit(PART_PARRIVED, self.sim.now, self.proc.rank,
                           partition, self.epoch)
        self._check_index(partition)
        if not self._arrived_events:
            raise RequestStateError("parrived() before the first start()")
        yield from self.proc._mpi_entry(
            tc, self.proc.costs.parrived_cost, locked=False)
        return self._arrived_events[partition].triggered

    def arrived_event(self, partition: int) -> Event:
        """The event that triggers when ``partition`` lands.

        Valid during the epoch *and* after its ``wait()`` (the events are
        replaced only by the next ``start()``), so harnesses can read
        arrival timestamps from the event values post-completion.
        """
        self._check_index(partition)
        if not self._arrived_events:
            raise RequestStateError("arrived_event() before start()")
        return self._arrived_events[partition]

    @property
    def arrived_count(self) -> int:
        """Partitions received so far in the current epoch."""
        return self._arrived

    # -- runtime hooks ----------------------------------------------------
    def _partition_arrived(self, epoch: int, partition: int, now: float,
                           payload: Any = None) -> None:
        """Called by the progress engine when a PDATA frame lands."""
        if not self.active or epoch != self.epoch:
            if epoch < self.epoch:
                raise RequestStateError(
                    f"partition for stale epoch {epoch} arrived in epoch "
                    f"{self.epoch}")
            self._early.setdefault(epoch, []).append(
                (partition, now, payload))
            return
        self._mark_arrived(partition, now, payload)

    def _mark_arrived(self, partition: int, now: float, payload: Any) -> None:
        # Early-arrival replays pass a past ``now``, so arrival records can
        # carry timestamps behind the clock; sinks order by emission, not
        # by time.
        self.proc.obs.emit(PART_ARRIVED, now, self.proc.rank, partition,
                           self.epoch, self.sizes[partition])
        ev = self._arrived_events[partition]
        if ev.triggered:
            raise RequestStateError(
                f"partition {partition} arrived twice in epoch {self.epoch}")
        ev.succeed((now, payload))
        self._arrived += 1
        if self._arrived == self.partitions:
            self._epoch_done.succeed(now)
            self.proc.obs.emit(PART_RECV_EPOCH_COMPLETE, now,
                               self.proc.rank, self.epoch)
