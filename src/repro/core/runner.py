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
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple, Union

from ..errors import ConfigurationError, DeadlockError
from ..faults import FaultOutcome
from ..metrics import PartitionTimeline, PtpMetrics, SampleSummary, summarize
from ..mpi import Cluster
from ..obs import DigestSink, Sink, TimelineBuilder
from ..obs.kinds import (BENCH_JOIN, BENCH_PART_BEGIN, BENCH_RECV_COMPLETE,
                         BENCH_SEND_BEGIN, BENCH_SINGLE_BEGIN)
from .config import COLD, PtpBenchmarkConfig

__all__ = ["PtpSample", "PtpResult", "run_ptp_benchmark", "run_ptp_trial",
           "ExecutionCounter", "EXECUTIONS"]

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


@dataclass(slots=True)
class PtpResult:
    """All measured iterations of one configuration, with summaries.

    ``event_digest`` is the SHA-256 fingerprint of the trial's full
    instrumentation stream (``None`` for results rebuilt from formats
    that predate it); equal digests prove two executions saw the same
    events in the same order with bit-identical payloads.

    ``fault_outcome`` is populated only for trials run under a
    :class:`~repro.faults.FaultPlan`: what the fault machinery saw, and —
    for trials that hit the deadline, a fail-stop, or an exhausted retry
    budget — why the samples are partial or absent.

    ``source`` records how the samples were produced: ``"des"`` for
    simulated trials, ``"analytic"`` for closed-form evaluations (see
    :mod:`repro.analytic`).  ``trials`` is how many simulations fed the
    samples — 1 for a plain trial, more when an
    :class:`~repro.metrics.AdaptiveTrialPlanner` merged repetitions, and
    0 for analytic results (nothing was simulated).
    """

    config: PtpBenchmarkConfig
    samples: List[PtpSample] = field(default_factory=list)
    event_digest: Optional[str] = None
    fault_outcome: Optional[FaultOutcome] = None
    source: str = "des"
    trials: int = 1

    def _summary(self, attr: str) -> SampleSummary:
        return summarize([getattr(s.metrics, attr) for s in self.samples])

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
        if not hasattr(PtpMetrics, "__dataclass_fields__") or \
                metric not in PtpMetrics.__dataclass_fields__:
            raise ConfigurationError(f"unknown metric {metric!r}")
        return self._summary(metric)


def _sender_program(ctx, config: PtpBenchmarkConfig):
    comm, main = ctx.comm, ctx.main
    m, n = config.message_bytes, config.partitions
    rng = ctx.rng("noise")
    ps = yield from comm.psend_init(main, 1, _PART_TAG, m, n,
                                    impl=config.impl)
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
    pr = yield from comm.precv_init(main, 0, _PART_TAG, m, n,
                                    impl=config.impl)
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
    faults = config.faults
    cluster = Cluster(
        nranks=2,
        spec=config.spec,
        inter_node=config.inter_node,
        intra_node=config.intra_node,
        costs=config.costs,
        mode=config.mode,
        bind_policy=config.bind_policy,
        seed=config.seed,
        faults=faults,
    )
    builder = TimelineBuilder(allow_partial=faults is not None)
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

    abandoned_reason = None
    if faults is None:
        cluster.run(program)
    else:
        try:
            cluster.run(program, until=faults.deadline)
        except DeadlockError:
            # Graceful degradation: the trial could not finish under the
            # fault plan.  Record a structured outcome instead of
            # crashing the sweep; completed iterations are kept.
            stats = cluster.fault_stats
            if stats.fail_stops:
                abandoned_reason = "rank fail-stop"
            elif faults.deadline is not None and \
                    cluster.now >= faults.deadline:
                abandoned_reason = (f"simulated deadline "
                                    f"{faults.deadline:g}s exceeded")
            elif stats.abandoned:
                abandoned_reason = "retry budget exhausted"
            else:
                abandoned_reason = "deadlocked under fault plan"
    cluster.obs.finalize()

    result = PtpResult(config=config, event_digest=digest.hexdigest())
    if faults is not None:
        result.fault_outcome = cluster.fault_stats.outcome(
            delivered=abandoned_reason is None,
            reason=abandoned_reason or "")
    for it, timeline in builder.timelines:
        if it < config.warmup:
            continue
        result.samples.append(PtpSample(
            iteration=it - config.warmup,
            timeline=timeline,
            metrics=PtpMetrics.from_timeline(timeline),
        ))
    return result, cluster


def run_ptp_benchmark(config: PtpBenchmarkConfig) -> PtpResult:
    """Run one configuration on a fresh two-rank cluster; returns the result.

    Convenience wrapper over :func:`run_ptp_trial` for callers that do
    not need the cluster or extra sinks.
    """
    result, _ = run_ptp_trial(config)
    return result
