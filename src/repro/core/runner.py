"""The point-to-point micro-benchmark trial runner.

Implements the measurement procedure behind the paper's Figure 3.  Every
iteration runs *both* models back to back with **common random numbers**
(identical per-thread compute draws), so the single-send reference join
time and ``t_pt2pt`` are the "equivalent" quantities the metric equations
demand:

1. *Partitioned phase* — both sides ``start``; the sender forks one thread
   per partition; each thread computes its (noise-inflated) amount and
   calls ``MPI_Pready``; the receiver's arrival times are taken from the
   ``part.arrived`` events.
2. *Single-send phase* — the sender forks the same team with the same
   compute draws, joins, then issues one ``m``-byte send matched by a
   pre-posted receive.

The programs do no bookkeeping of their own: they emit ``bench.*`` phase
markers on the cluster's instrumentation bus and the streaming
:class:`~repro.obs.TimelineBuilder` sink assembles one
:class:`~repro.metrics.timeline.PartitionTimeline` per iteration from the
markers plus the runtime's ``part.pready``/``part.arrived`` events.  A
:class:`~repro.obs.DigestSink` fingerprints the full event stream, so
serial, parallel, and cached executions can be proven bit-identical.

A cold-cache configuration invalidates both ranks' caches at the top of
every iteration (§3.4); a hot-cache one relies on the warmup iteration to
install the buffers.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..metrics import PartitionTimeline, PtpMetrics, SampleSummary, summarize
from ..metrics.definitions import timeline_metrics
from ..metrics.timeline import check_timeline
from ..mpi import Cluster
from ..obs import DigestSink, Sink, TimelineBuilder
from ..obs.kinds import (BENCH_JOIN, BENCH_PART_BEGIN, BENCH_RECV_COMPLETE,
                         BENCH_SEND_BEGIN, BENCH_SINGLE_BEGIN)
from .config import COLD, PtpBenchmarkConfig

__all__ = ["PtpSample", "PtpResult", "METRIC_NAMES", "run_ptp_benchmark",
           "run_ptp_trial", "ExecutionCounter", "EXECUTIONS"]

#: Tags used by the two phases (ordinary user tag space).
_PART_TAG = 100
_SINGLE_TAG = 101


class ExecutionCounter:
    """Counts full benchmark trials run *in this process*.

    The parallel engine's cache tests use it to prove a cached re-run
    executed zero simulations.  Worker processes each count their own
    trials, so under ``jobs > 1`` the parent's counter only reflects
    inline (non-pooled) executions; use
    :class:`~repro.core.parallel.SweepStats` for sweep-level accounting.

    Increments are lock-protected: the service scheduler's dispatchers
    drive trials from several threads, and an unguarded ``+= 1`` can
    lose counts across an interleaving.
    """

    def __init__(self) -> None:
        #: Trials run in this process since import (or the last reset).
        self.value = 0
        self._lock = threading.Lock()

    def bump(self) -> None:
        """Record one benchmark trial."""
        with self._lock:
            self.value += 1

    def reset(self) -> None:
        """Zero the counter (tests isolate their measurements with this)."""
        with self._lock:
            self.value = 0


#: Module-level trial counter (see :class:`ExecutionCounter`).
EXECUTIONS = ExecutionCounter()


@dataclass(frozen=True, slots=True)
class PtpSample:
    """One measured iteration: the raw timeline plus its four metrics."""

    iteration: int
    timeline: PartitionTimeline
    metrics: PtpMetrics


#: The four §3.1 metric names, in :class:`PtpMetrics` field order — the
#: order a sample's metrics take in the record.
METRIC_NAMES = ("overhead", "perceived_bandwidth",
                "application_availability", "early_bird_fraction")
_METRIC_INDEX = {name: k for k, name in enumerate(METRIC_NAMES)}

#: Doubles a sample keeps after its ``2 * partitions`` timestamps:
#: ``join_time``, ``pt2pt_time`` and the four metrics.
_TAIL = 2 + len(METRIC_NAMES)


class PtpResult:
    """All measured iterations of one configuration, with summaries.

    ``event_digest`` is the SHA-256 fingerprint of the trial's full
    instrumentation stream (``None`` for results rebuilt from formats
    that predate it); equal digests prove two executions saw the same
    events in the same order with bit-identical payloads.

    ``source`` records how the samples were produced: ``"des"`` for
    simulated trials, ``"analytic"`` for closed-form evaluations (see
    :mod:`repro.analytic`).  ``trials`` is how many simulations fed the
    samples: 1 for a simulated result, 0 for an analytic one (nothing
    was simulated).

    The measured iterations live in one packed record, in sample order
    (DESIGN.md, section 10): an ``array('Q')`` of ``iteration``,
    ``message_bytes`` and partition count per sample, and an
    ``array('d')`` of each sample's pready times, arrival times,
    ``join_time``, ``pt2pt_time`` and Eq. 1–4 metrics.  :meth:`add_sample`
    is the one writer; it validates the timeline and computes the
    metrics once, and :meth:`trim` ends a producer's writes.  After that
    the record is never written, so results may share it
    (:meth:`with_config`).  :attr:`samples` builds :class:`PtpSample`
    views on access, while counts and summaries read the record.
    """

    __slots__ = ("config", "event_digest", "source", "trials", "_ints",
                 "_doubles")

    def __init__(self, config: PtpBenchmarkConfig,
                 samples: Iterable[PtpSample] = (),
                 event_digest: Optional[str] = None,
                 source: str = "des", trials: int = 1) -> None:
        self.config = config
        self.event_digest = event_digest
        self.source = source
        self.trials = trials
        self._ints = array("Q")
        self._doubles = array("d")
        for sample in samples:
            tl = sample.timeline
            self.add_sample(sample.iteration, tl.message_bytes,
                            tl.pready_times, tl.arrival_times,
                            tl.join_time, tl.pt2pt_time,
                            [getattr(sample.metrics, name)
                             for name in METRIC_NAMES])

    def add_sample(self, iteration: int, message_bytes: int,
                   pready_times: Sequence[float],
                   arrival_times: Sequence[float], join_time: float,
                   pt2pt_time: float,
                   metrics: Optional[Sequence[float]] = None) -> None:
        """Append one measured iteration to the record.

        The timeline is validated like a
        :class:`~repro.metrics.PartitionTimeline` and, unless ``metrics``
        is given, Eqs. (1)–(4) are evaluated on it; either check raises
        :class:`~repro.errors.ConfigurationError`.
        """
        check_timeline(message_bytes, pready_times, arrival_times,
                       pt2pt_time)
        if metrics is None:
            metrics = timeline_metrics(message_bytes, pready_times,
                                       arrival_times, join_time, pt2pt_time)
        try:
            ints = array("Q", (iteration, message_bytes, len(pready_times)))
        except OverflowError as exc:
            raise ConfigurationError(
                f"sample out of record range: {exc}") from None
        self._ints += ints
        doubles = self._doubles
        doubles.extend(pready_times)
        doubles.extend(arrival_times)
        doubles.extend((join_time, pt2pt_time, *metrics))

    def trim(self) -> None:
        """Give back the spare room appends leave in the record; a
        producer calls this once, after its last sample."""
        self._ints, self._doubles = self._ints[:], self._doubles[:]

    def extend(self, other: "PtpResult") -> None:
        """Append ``other``'s samples, renumbered to follow this record's."""
        start = self.n_samples
        ints = self._ints
        ints += other._ints
        self._doubles += other._doubles
        ints[3 * start::3] = array("Q", range(start, self.n_samples))

    def with_config(self, config: PtpBenchmarkConfig) -> "PtpResult":
        """This result under ``config``, sharing (not copying) the record."""
        twin = PtpResult(config, event_digest=self.event_digest,
                         source=self.source, trials=self.trials)
        twin._ints, twin._doubles = self._ints, self._doubles
        return twin

    @property
    def n_samples(self) -> int:
        """How many measured iterations the record holds."""
        return len(self._ints) // 3

    def rows(self) -> Iterator[Tuple[int, int, float, float, array,
                                     array]]:
        """Each sample's fields, without views: ``(iteration,
        message_bytes, join_time, pt2pt_time, times, metrics)``.
        ``times`` is a copy of the pready then the arrival times (the
        wire frame's order), ``metrics`` an array of the four Eq. 1–4
        values in :data:`METRIC_NAMES` order."""
        ints, doubles = self._ints, self._doubles
        offset = 0
        for i in range(0, len(ints), 3):
            tail = offset + 2 * ints[i + 2]
            yield (ints[i], ints[i + 1], doubles[tail], doubles[tail + 1],
                   doubles[offset:tail], doubles[tail + 2:tail + _TAIL])
            offset = tail + _TAIL

    @property
    def samples(self) -> Tuple[PtpSample, ...]:
        """The measured iterations as views, built on each access."""
        return tuple(
            PtpSample(iteration, PartitionTimeline(
                message_bytes, times[:len(times) // 2],
                times[len(times) // 2:], join_time, pt2pt_time),
                PtpMetrics(*metrics))
            for iteration, message_bytes, join_time, pt2pt_time, times,
            metrics in self.rows())

    def metric_values(self, metric: str) -> Sequence[float]:
        """One metric's value per sample, in sample order (no views)."""
        k = _METRIC_INDEX.get(metric)
        if k is None:
            raise ConfigurationError(f"unknown metric {metric!r}")
        ints, doubles = self._ints, self._doubles
        counts = ints[2::3]
        if counts and counts.count(counts[0]) == len(counts):
            stride = 2 * counts[0] + _TAIL
            return doubles[stride - len(METRIC_NAMES) + k::stride]
        values = []
        offset = 0
        for p in counts:
            offset += 2 * p + _TAIL
            values.append(doubles[offset - len(METRIC_NAMES) + k])
        return values

    def _summary(self, attr: str) -> SampleSummary:
        return summarize(self.metric_values(attr))

    @property
    def overhead(self) -> SampleSummary:
        """Eq. (1) across iterations."""
        return self._summary("overhead")

    @property
    def perceived_bandwidth(self) -> SampleSummary:
        """Eq. (2) across iterations (bytes/second)."""
        return self._summary("perceived_bandwidth")

    @property
    def application_availability(self) -> SampleSummary:
        """Eq. (3) across iterations."""
        return self._summary("application_availability")

    @property
    def early_bird_fraction(self) -> SampleSummary:
        """Eq. (4) across iterations (0–1)."""
        return self._summary("early_bird_fraction")

    def metric_summary(self, metric: str) -> SampleSummary:
        """Summary by metric name (the four attribute names above)."""
        return self._summary(metric)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PtpResult):
            return NotImplemented
        return ((self.config, self.event_digest, self.source, self.trials,
                 self._ints, self._doubles)
                == (other.config, other.event_digest, other.source,
                    other.trials, other._ints, other._doubles))

    def __repr__(self) -> str:
        return (f"PtpResult(config={self.config!r}, "
                f"n_samples={self.n_samples}, "
                f"event_digest={self.event_digest!r}, "
                f"source={self.source!r}, trials={self.trials!r})")


def _sender_program(ctx, config: PtpBenchmarkConfig):
    comm, main = ctx.comm, ctx.main
    m, n = config.message_bytes, config.partitions
    rng = ctx.rng("noise")
    ps = yield from comm.psend_init(main, 1, _PART_TAG, m, n)
    nthreads = config.threads
    ppt = config.partitions_per_thread
    for it in range(config.total_iterations):
        yield from comm.barrier(main)
        if config.cache == COLD:
            yield from ctx.invalidate_cache()
        computes = config.noise.compute_times(rng, nthreads,
                                              config.compute_seconds)
        # ---- partitioned phase -------------------------------------
        yield from ps.start(main)

        def worker(tc):
            yield from tc.compute(computes[tc.thread_id])
            # Each thread owns a contiguous block of partitions (the
            # paper's 1:1 mapping when partitions_per_thread == 1).
            lo = tc.thread_id * ppt
            for p in range(lo, lo + ppt):
                yield from ps.pready(tc, p)

        # Anchor each phase at the opening of its parallel region so the
        # two phases (which run back to back in absolute simulated time)
        # can be compared on a common relative clock, as the paper's
        # side-by-side timelines in Fig. 3 do.
        ctx.obs.emit(BENCH_PART_BEGIN, ctx.sim.now, ctx.rank, it, m, n)
        team = yield from ctx.fork(nthreads, worker)
        yield from team.join()
        yield from ps.wait(main)
        # ---- single-send phase --------------------------------------
        yield from comm.barrier(main)

        def worker_single(tc):
            yield from tc.compute(computes[tc.thread_id])

        ctx.obs.emit(BENCH_SINGLE_BEGIN, ctx.sim.now, ctx.rank, it)
        team2 = yield from ctx.fork(nthreads, worker_single)
        yield from team2.join()
        ctx.obs.emit(BENCH_JOIN, ctx.sim.now, ctx.rank, it)
        ctx.obs.emit(BENCH_SEND_BEGIN, ctx.sim.now, ctx.rank, it)
        sreq = yield from comm.isend(main, 1, _SINGLE_TAG, m)
        yield sreq.wait()
        yield from comm.barrier(main)


def _receiver_program(ctx, config: PtpBenchmarkConfig):
    comm, main = ctx.comm, ctx.main
    m, n = config.message_bytes, config.partitions
    pr = yield from comm.precv_init(main, 0, _PART_TAG, m, n)
    for it in range(config.total_iterations):
        yield from comm.barrier(main)
        if config.cache == COLD:
            yield from ctx.invalidate_cache()
        # ---- partitioned phase -------------------------------------
        yield from pr.start(main)
        yield from pr.wait(main)
        # ---- single-send phase --------------------------------------
        # Pre-post the receive so t_pt2pt measures the transfer, not the
        # posting race.
        rreq = yield from comm.irecv(main, 0, _SINGLE_TAG, m)
        yield from comm.barrier(main)
        yield rreq.wait()
        ctx.obs.emit(BENCH_RECV_COMPLETE, ctx.sim.now, ctx.rank, it)
        yield from comm.barrier(main)


#: Extra sinks for :func:`run_ptp_trial`: bare sinks (attached with their
#: ``PATTERNS`` attribute, ``"*"`` when absent) or ``(sink, patterns)``.
SinkSpec = Union[Sink, Tuple[Sink, Tuple[str, ...]]]


def run_ptp_trial(config: PtpBenchmarkConfig,
                  sinks: Iterable[SinkSpec] = ()
                  ) -> Tuple[PtpResult, Cluster]:
    """Run one instrumented trial; returns ``(result, cluster)``.

    The two ranks live on distinct nodes (one switch apart), like the
    paper's single-wing point-to-point setup.  A
    :class:`~repro.obs.TimelineBuilder` and a ``"*"``-subscribed
    :class:`~repro.obs.DigestSink` are always attached; pass ``sinks``
    to subscribe additional observers (e.g. a
    :class:`~repro.obs.MemorySink` for ``repro trace export``) to the
    same stream.  The result keeps measured iterations only — warmup is
    discarded — and carries the digest of the *full* event stream.
    """
    EXECUTIONS.bump()
    cluster = Cluster(
        nranks=2,
        spec=config.spec,
        inter_node=config.inter_node,
        costs=config.costs,
        mode=config.mode,
        seed=config.seed,
    )
    builder = TimelineBuilder()
    cluster.obs.attach(builder, TimelineBuilder.PATTERNS)
    digest = DigestSink()
    cluster.obs.attach(digest, ("*",))
    for spec in sinks:
        if isinstance(spec, tuple):
            sink, patterns = spec
            cluster.obs.attach(sink, patterns)
        else:
            cluster.obs.attach(spec, getattr(spec, "PATTERNS", ("*",)))

    def program(ctx):
        if ctx.rank == 0:
            yield from _sender_program(ctx, config)
        else:
            yield from _receiver_program(ctx, config)

    cluster.run(program)
    cluster.obs.finalize()

    result = PtpResult(config=config, event_digest=digest.hexdigest())
    for it, tl in builder.timelines:
        if it >= config.warmup:
            result.add_sample(it - config.warmup, tl.message_bytes,
                              tl.pready_times, tl.arrival_times,
                              tl.join_time, tl.pt2pt_time)
    result.trim()
    return result, cluster


def run_ptp_benchmark(config: PtpBenchmarkConfig) -> PtpResult:
    """Run one configuration on a fresh two-rank cluster; returns the result.

    Convenience wrapper over :func:`run_ptp_trial` for callers that do
    not need the cluster or extra sinks.
    """
    result, _ = run_ptp_trial(config)
    return result
