"""Per-rank MPI engine: call paths, protocol handling, progress.

One :class:`MPIProcess` exists per simulated rank.  It owns:

* the rank's :class:`~repro.network.nic.NIC` (serializing injections),
* the :class:`~repro.mpi.matching.MatchingEngine` (posted/unexpected queues),
* the library lock (a :class:`~repro.sim.resources.Mutex`) taken around
  every call under ``MPI_THREAD_MULTIPLE``,
* a cache model (hot/cold buffer residency),
* the *progress loop*, a generator draining the rank's inbox and running
  the receive-side protocol state machine.  The owning cluster runs it as
  a simulated process and keeps that process, so the loop's frame, which
  refers to this engine, is not referred back to.

All application-facing verbs are **generators**: the calling simulated
thread ``yield from``-s them so CPU costs land on the right actor.

Pure per-rank lookups (the wire time per message size, the NUMA penalty
and lock hold per core) are memoized on the process, so a cluster computes
each once; the tables are capped at :data:`MEMO_CAP` entries.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import ThreadingModeError, TruncationError
from ..machine import CacheModel, MachineSpec
from ..network import NIC, NetworkParams, Transmission
from ..obs import EventBus
from ..obs.kinds import RECV_COMPLETE, RECV_POST, SEND_COMPLETE, SEND_START
from ..sim import Mutex, Simulator, Store
from .constants import MPICosts, ThreadingMode
from .matching import Envelope, MatchingEngine
from .protocol import Frame, FrameKind
from .request import RecvRequest, SendRequest

__all__ = ["MPIProcess"]

#: Entry cap of each per-process memo table; past it, lookups are computed
#: fresh instead of stored.
MEMO_CAP = 1024


class MPIProcess:
    """The MPI library instance of one simulated rank.

    Parameters
    ----------
    sim, rank:
        Kernel handle and this rank's id in ``COMM_WORLD``.
    params:
        The one path every peer is reached over (each rank has a node
        of its own, one switch from every other).
    spec:
        The node this rank runs on.
    costs:
        Software path-length parameters (:class:`MPICosts`).
    mode:
        Declared threading mode; violations raise
        :class:`~repro.errors.ThreadingModeError`.
    obs:
        Shared instrumentation bus events are emitted on.
    router:
        ``router(dst_rank, frame)`` delivering a frame into the destination
        rank's inbox (wired up by the cluster).
    """

    def __init__(self, sim: Simulator, rank: int, params: NetworkParams,
                 spec: MachineSpec, costs: MPICosts, mode: ThreadingMode,
                 obs: EventBus,
                 router: Callable[[int, Frame], None]):
        self.sim = sim
        self.rank = rank
        self.params = params
        self.spec = spec
        self.costs = costs
        self.mode = mode
        self.obs = obs

        self.cache = CacheModel(spec)
        self.lock = Mutex(sim, name=f"rank{rank}.liblock")
        self.matching = MatchingEngine()
        self.inbox: Store = Store(sim, name=f"rank{rank}.inbox")
        self.nic = NIC(sim, rank, router, obs=obs)
        self._match_cost = params.match_cost
        self._latency = params.path_latency()
        #: wire_bytes -> wire_time.
        self._wire_times: dict = {}
        #: core -> ``(injection penalty, lock hold)``.
        self._core_costs: dict = {}
        self._in_mpi = 0
        #: Threads currently spin-waiting inside a blocking MPI call; under
        #: MULTIPLE they contend with the progress engine for the lock.
        self.blocked_waiters = 0

    # ------------------------------------------------------------------
    # call-path plumbing
    # ------------------------------------------------------------------
    def _mpi_entry(self, tc, cost: float, locked: bool = True):
        """Charge one MPI call's CPU cost under the threading-mode rules.

        Under ``MULTIPLE`` the library lock is held for ``lock_hold`` (plus
        the remote-socket penalty when the calling thread spilled over);
        under ``FUNNELED``/``SERIALIZED`` illegal concurrency raises.
        """
        mode = self.mode
        if mode is not ThreadingMode.MULTIPLE:
            if self._in_mpi > 0:
                raise ThreadingModeError(
                    f"rank {self.rank}: concurrent MPI calls under "
                    f"{mode.value} threading mode")
            if mode is ThreadingMode.FUNNELED and tc.thread_id != 0:
                raise ThreadingModeError(
                    f"rank {self.rank}: thread {tc.thread_id} called MPI "
                    f"under FUNNELED mode")
        self._in_mpi += 1
        try:
            core_costs = self._core_costs.get(tc.core)
            if core_costs is None:
                core_costs = self._costs_on(tc.core)
            penalty, hold = core_costs
            sim = self.sim
            if mode is ThreadingMode.MULTIPLE and locked:
                lock = self.lock
                resource = lock._resource
                if resource._in_use:
                    yield from lock.acquire()
                else:
                    # Mutex.acquire's uncontended grant, inlined: the same
                    # zero-delay sleep, one generator frame fewer.
                    resource._in_use = 1
                    yield sim.sleep(0.0, resource)
                    lock.stats.acquisitions += 1
                    lock._held_since = sim._now
                try:
                    yield sim.sleep(cost + penalty + hold)
                finally:
                    lock.release()
            else:
                total = cost + penalty
                if total > 0:
                    yield sim.sleep(total)
        finally:
            self._in_mpi -= 1

    def _costs_on(self, core: int):
        """``(injection penalty, lock hold)`` for calls issued from ``core``."""
        hold = self.costs.lock_hold
        if self.spec.is_remote_to_nic(core):
            hold += self.costs.lock_remote_penalty
        costs = (self.spec.injection_penalty(core), hold)
        if len(self._core_costs) < MEMO_CAP:
            self._core_costs[core] = costs
        return costs

    def blocking_wait(self, tc, event):
        """Generator: block inside an MPI call until ``event`` triggers.

        While blocked, the thread counts toward :attr:`blocked_waiters`;
        under ``MULTIPLE`` each waiter slows the progress engine (spinning
        threads bounce the progress lock).  This is the contention that
        makes multi-threaded point-to-point lose to partitioned
        communication in the paper's pattern benchmarks.
        """
        if event.triggered:
            return event.value
        self.blocked_waiters += 1
        try:
            yield event
        finally:
            self.blocked_waiters -= 1
        return event.value

    def progress_multiplier(self) -> float:
        """Current slowdown factor of receive-side frame handling.

        One blocked waiter costs nothing extra — a lone spin-polling
        ``MPI_Wait`` *is* the progress engine.  Every additional waiter
        bounces the progress lock and dilutes it.
        """
        if self.mode is ThreadingMode.MULTIPLE and self.blocked_waiters > 1:
            return (1.0 + self.costs.progress_contention
                    * (self.blocked_waiters - 1))
        return 1.0

    def _progress_delay(self, cost: float):
        """The sleep charging a progress-engine cost under contention.

        ``None`` when the scaled cost is zero; otherwise the caller must
        yield the returned sleep at once.
        """
        scaled = cost * self.progress_multiplier()
        if scaled > 0:
            return self.sim.sleep(scaled)
        return None

    def transmit(self, dst_rank: int, wire_bytes: int,
                 frame: Frame) -> Transmission:
        """Queue a frame on this rank's NIC toward ``dst_rank``.

        ``wire_bytes`` is what occupies the link (0 for control frames,
        which are clamped to the path's minimum message size).
        """
        wire_time = self._wire_times.get(wire_bytes)
        if wire_time is None:
            wire_time = self.params.wire_time(wire_bytes)
            if len(self._wire_times) < MEMO_CAP:
                self._wire_times[wire_bytes] = wire_time
        tx = Transmission(dst_rank, wire_bytes, wire_time, self._latency,
                          frame, self.params.injection_gap)
        return self.nic.enqueue(tx)

    def deliver(self, frame: Frame) -> None:
        """Entry point used by the cluster's router: enqueue into our
        inbox."""
        self.inbox.put(frame)

    # ------------------------------------------------------------------
    # point-to-point verbs (generators)
    # ------------------------------------------------------------------
    def isend(self, tc, comm_id: int, dest: int, tag: int, nbytes: int,
              payload: Any = None, bufkey: Optional[str] = None):
        """Nonblocking send; returns a :class:`SendRequest`.

        Eager messages complete when the NIC finishes injecting; rendezvous
        messages complete when the bulk data has been injected after the
        CTS round trip.
        """
        req = SendRequest(self.sim, dest, tag, nbytes)
        req._payload = payload
        params = self.params
        # Eager sends copy the user buffer into a bounce buffer (so hot/cold
        # cache state matters); the memcpy runs outside the library lock.
        # Rendezvous sends are zero-copy — the NIC DMAs from user memory.
        if params.is_eager(nbytes):
            key = bufkey or f"r{self.rank}.c{comm_id}.t{tag}.send"
            copy = self.cache.access_time(key, nbytes)
            if copy > 0:
                yield self.sim.sleep(copy)
        cost = (self.costs.call_overhead + self.costs.post_cost
                + params.send_overhead)
        yield from self._mpi_entry(tc, cost)
        env = Envelope(self.rank, tag, comm_id)
        self.obs.emit(SEND_START, self.sim.now, self.rank, dest, tag, nbytes)
        if params.is_eager(nbytes):
            frame = Frame(FrameKind.EAGER, self.rank, dest, nbytes,
                          envelope=env, payload=payload)
            tx = self.transmit(dest, nbytes, frame)
            tx.injected.callbacks.append(
                lambda ev, r=req: self._complete_send(r))
        else:
            frame = Frame(FrameKind.RTS, self.rank, dest, nbytes,
                          envelope=env, sreq=req)
            self.transmit(dest, 0, frame)
        return req

    def irecv(self, tc, comm_id: int, source: int, tag: int, nbytes: int,
              bufkey: Optional[str] = None):
        """Nonblocking receive; returns a :class:`RecvRequest`."""
        req = RecvRequest(self.sim, source, tag, nbytes)
        req.bufkey = bufkey or f"r{self.rank}.c{comm_id}.t{tag}.recv"
        yield from self._mpi_entry(
            tc, self.costs.call_overhead + self.costs.post_cost)
        entry, scanned = self.matching.find_unexpected(source, tag, comm_id)
        if entry is None:
            # Atomic with the search above (no yield in between), so no
            # frame can slip into the unexpected queue unseen.
            self.matching.post_recv(req, source, tag, comm_id)
            self.obs.emit(RECV_POST, self.sim.now, self.rank, source, tag)
            if scanned:
                yield self.sim.sleep(scanned * self._match_cost)
            return req
        frame: Frame = entry.frame
        cost = scanned * self._match_cost
        if frame.kind is FrameKind.EAGER:
            self._check_truncation(req, frame)
            cost += self.params.recv_overhead
            cost += self.cache.access_time(req.bufkey, frame.nbytes)
            yield self.sim.sleep(cost)
            self._complete_recv(req, frame.nbytes, frame.payload)
        else:  # RTS waiting in the unexpected queue
            self._check_truncation(req, frame)
            yield self.sim.sleep(cost + self.costs.post_cost)
            cts = Frame(FrameKind.CTS, self.rank, frame.src_rank,
                        nbytes=frame.nbytes, sreq=frame.sreq, rreq=req)
            self.transmit(frame.src_rank, 0, cts)
        return req

    # ------------------------------------------------------------------
    # progress engine (receive-side protocol state machine)
    # ------------------------------------------------------------------
    def _progress_loop(self):
        inbox = self.inbox
        while True:
            frame = yield inbox.get()
            kind = frame.kind
            if kind is FrameKind.EAGER or kind is FrameKind.RTS:
                yield from self._handle_match(frame)
            elif kind is FrameKind.PDATA:
                yield from self._handle_pdata(frame)
            elif kind is FrameKind.CTS:
                yield from self._handle_cts(frame)
            elif kind is FrameKind.RDATA:
                yield from self._handle_rdata(frame)
            elif kind is FrameKind.PRTS:
                delay = self._progress_delay(self.costs.post_cost)
                if delay is not None:
                    yield delay
                pcts = Frame(FrameKind.PCTS, self.rank, frame.src_rank,
                             nbytes=frame.nbytes, sreq=frame.sreq,
                             preq=frame.preq, partition=frame.partition,
                             epoch=frame.epoch)
                self.transmit(frame.src_rank, 0, pcts)
            elif kind is FrameKind.PCTS:
                yield from self._handle_pcts(frame)
            else:  # pragma: no cover - exhaustive over enum
                raise AssertionError(f"unhandled frame kind {kind}")

    def _handle_match(self, frame: Frame):
        entry, scanned = self.matching.match_arrival(frame.envelope)
        cost = scanned * self._match_cost
        if entry is None:
            self.matching.store_unexpected(frame, frame.envelope,
                                           self.sim.now)
            delay = self._progress_delay(cost + self.costs.post_cost)
            if delay is not None:
                yield delay
            return
        req: RecvRequest = entry.request
        self._check_truncation(req, frame)
        if frame.kind is FrameKind.EAGER:
            cost += self.params.recv_overhead
            cost += self.cache.access_time(req.bufkey, frame.nbytes)
            delay = self._progress_delay(cost)
            if delay is not None:
                yield delay
            self._complete_recv(req, frame.nbytes, frame.payload)
        else:  # RTS matched a posted receive: grant the send
            delay = self._progress_delay(cost + self.costs.post_cost)
            if delay is not None:
                yield delay
            cts = Frame(FrameKind.CTS, self.rank, frame.src_rank,
                        nbytes=frame.nbytes, sreq=frame.sreq, rreq=req)
            self.transmit(frame.src_rank, 0, cts)

    def _handle_cts(self, frame: Frame):
        """Sender side: receiver granted the rendezvous — push the data."""
        sreq: SendRequest = frame.sreq
        delay = self._progress_delay(
            self.costs.post_cost + self.params.rendezvous_overhead)
        if delay is not None:
            yield delay
        data = Frame(FrameKind.RDATA, self.rank, frame.src_rank,
                     nbytes=sreq.nbytes, rreq=frame.rreq,
                     payload=sreq._payload)
        tx = self.transmit(frame.src_rank, sreq.nbytes, data)
        tx.injected.callbacks.append(
            lambda ev, r=sreq: self._complete_send(r))

    def _handle_rdata(self, frame: Frame):
        req: RecvRequest = frame.rreq
        # Rendezvous data lands directly in the user buffer (zero-copy).
        delay = self._progress_delay(self.params.recv_overhead)
        if delay is not None:
            yield delay
        self.cache.touch(req.bufkey, frame.nbytes)
        self._complete_recv(req, frame.nbytes, frame.payload)

    def _handle_pdata(self, frame: Frame):
        """A partition landed: no matching — direct hand-off to the bound
        partitioned receive request."""
        params = self.params
        preq = frame.preq
        cost = params.recv_overhead
        if params.is_eager(frame.nbytes):
            # Eager internal messages are copied out of the bounce buffer;
            # rendezvous partitions land zero-copy.
            cost += self.cache.access_time(
                f"{preq.bufkey}.p{frame.partition}", frame.nbytes)
        else:
            self.cache.touch(f"{preq.bufkey}.p{frame.partition}",
                             frame.nbytes)
        delay = self._progress_delay(cost)
        if delay is not None:
            yield delay
        preq._partition_arrived(frame.epoch, frame.partition, self.sim.now,
                                frame.payload)

    def _handle_pcts(self, frame: Frame):
        """Sender side of a rendezvous partition: push the partition data."""
        delay = self._progress_delay(
            self.costs.post_cost + self.params.rendezvous_overhead)
        if delay is not None:
            yield delay
        data = Frame(FrameKind.PDATA, self.rank, frame.src_rank,
                     nbytes=frame.nbytes, preq=frame.preq,
                     partition=frame.partition, epoch=frame.epoch)
        tx = self.transmit(frame.src_rank, frame.nbytes, data)
        psreq, partition, epoch = frame.sreq, frame.partition, frame.epoch
        tx.injected.callbacks.append(
            lambda ev: psreq._partition_injected(epoch, partition,
                                                 self.sim.now))

    # ------------------------------------------------------------------
    # completion helpers
    # ------------------------------------------------------------------
    def _complete_send(self, req: SendRequest) -> None:
        req._finish(self.sim.now, source=self.rank, tag=req.tag,
                    nbytes=req.nbytes)
        self.obs.emit(SEND_COMPLETE, self.sim.now, self.rank, req.dest,
                      req.tag, req.nbytes)

    def _complete_recv(self, req: RecvRequest, nbytes: int,
                       payload: Any) -> None:
        # Matching is exact, so the request's own source and tag are the
        # matched envelope's.
        req._finish(self.sim.now, source=req.source, tag=req.tag,
                    nbytes=nbytes, payload=payload)
        self.obs.emit(RECV_COMPLETE, self.sim.now, self.rank,
                      req.source, req.tag, nbytes)

    @staticmethod
    def _check_truncation(req: RecvRequest, frame: Frame) -> None:
        if frame.nbytes > req.nbytes:
            raise TruncationError(
                f"message of {frame.nbytes} B overflows receive buffer "
                f"of {req.nbytes} B (tag {frame.envelope.tag})")
