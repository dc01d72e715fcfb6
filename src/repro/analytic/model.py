"""Closed-form evaluation of deterministic benchmark cells.

For a noise-free configuration the DES is a deterministic
function of its parameters: every thread computes for exactly
``compute_seconds``, every MPI call costs a fixed amount, and every frame
moves through four FIFO stations (the library lock, the sender NIC, the
receiver progress engine, and — for rendezvous partitions — the
receiver NIC and sender progress engine on the PRTS/PCTS round trip).
Each station's service time is closed-form in ``NetworkParams`` +
``MPICosts`` + ``MachineSpec``; the cell's timeline is those service
times composed through a max/sum pipeline recurrence, evaluated here
over at most ``6 * partitions`` arithmetic steps — no simulator, no
event queue, no processes.

The recurrence reproduces the DES timeline to float round-off
(cross-validated to < 1e-9 relative error over the paper grid and the
eager/rendezvous boundary; the property-test gate in
``tests/test_analytic.py`` and the documented tolerance in
``docs/analytic.md`` is :data:`ANALYTIC_RTOL`).

Eligibility (:func:`analytic_supported`) is strict: any configuration it
cannot reproduce *exactly* — noise, non-MULTIPLE threading, a
hot-cache working set that does not fit the LLC (eviction order starts
to matter), or a hot cache with no warmup iteration (the first measured
iteration would differ from the rest) — falls back to the DES.
"""

from __future__ import annotations

import heapq
from array import array
from typing import List, Optional

from ..core.config import COLD, HOT, PtpBenchmarkConfig
from ..core.runner import PtpResult
from ..machine import bind_threads, scaled_compute_time
from ..metrics import PartitionTimeline
from ..mpi.constants import ThreadingMode
from ..partitioned.requests import partition_sizes
from ..threadsim.openmp import DEFAULT_OPENMP_COSTS

__all__ = ["ANALYTIC_RTOL", "analytic_supported", "evaluate_timeline",
           "evaluate_analytic"]

#: Documented relative tolerance of the analytic model vs the DES.
#: Measured worst-case disagreement over the paper grid (plus boundary,
#: cold-cache, spillover, and oversubscription cells) is ~1e-10 —
#: pure float round-off from composing the same costs in a different
#: order.  The property tests gate at this bound with margin.
ANALYTIC_RTOL = 1e-6

#: Head room demanded of the hot-cache LLC footprint check: barrier
#: messages and bookkeeping keys also occupy residency, so a working set
#: within one page of capacity is not trusted to stay eviction-free.
_LLC_MARGIN = 4096


def _footprint_ok(config: PtpBenchmarkConfig) -> bool:
    """True if every hot-cache access the model times is a guaranteed hit.

    Per rank: every *timed* buffer must fit the LLC on its own, and the
    iteration's whole key footprint (timed copies plus zero-cost
    ``touch`` installs) must fit together — otherwise deterministic
    oldest-first eviction starts deciding hit/miss and the closed form
    no longer holds.
    """
    params = config.inter_node
    llc = config.spec.llc_bytes - _LLC_MARGIN
    sizes = partition_sizes(config.message_bytes, config.partitions)
    msg_eager = params.is_eager(config.message_bytes)

    sender_timed: List[int] = []
    sender_all: List[int] = []
    recv_timed: List[int] = []
    recv_all: List[int] = []
    for nb in sizes:
        if params.is_eager(nb):
            sender_timed.append(nb)
            sender_all.append(nb)
            recv_timed.append(nb)
            recv_all.append(nb)
        else:
            # Sender is zero-copy; receiver installs via touch().
            recv_all.append(min(nb, config.spec.llc_bytes))
    if msg_eager:
        sender_timed.append(config.message_bytes)
        sender_all.append(config.message_bytes)
        recv_timed.append(config.message_bytes)
        recv_all.append(config.message_bytes)

    for timed, footprint in ((sender_timed, sender_all),
                             (recv_timed, recv_all)):
        if not timed:
            continue
        if max(timed) > llc or sum(footprint) > llc:
            return False
    return True


def analytic_supported(config: PtpBenchmarkConfig) -> Optional[str]:
    """Why ``config`` cannot be answered analytically, or ``None`` if it can.

    The rules (see ``docs/analytic.md``):

    * the configuration must be deterministic — a noise model that
      returns exactly ``compute_seconds`` for every thread (``NoNoise``
      or any percent model at 0%);
    * ``MPI_THREAD_MULTIPLE`` (the benchmark's mode; FUNNELED/SERIALIZED
      change the lock discipline);
    * a hot cache needs ``warmup >= 1`` (iteration 0 would otherwise
      run cold and differ from the rest) and a working set that fits the
      LLC, so every timed access is a guaranteed hit.
    """
    if not config.is_deterministic:
        return f"nondeterministic noise model ({config.noise.describe()})"
    if config.mode is not ThreadingMode.MULTIPLE:
        return f"threading mode {config.mode.value} (model assumes MULTIPLE)"
    if config.cache == HOT:
        if config.warmup < 1:
            return "hot cache without a warmup iteration"
        if not _footprint_ok(config):
            return "hot-cache working set exceeds the LLC"
    return None


def evaluate_timeline(config: PtpBenchmarkConfig) -> PartitionTimeline:
    """The deterministic iteration's timeline, computed in closed form.

    Mirrors one measured iteration of
    :func:`~repro.core.runner.run_ptp_trial` exactly: same relative
    clock (times anchored at ``bench.part_begin`` /
    ``bench.single_begin``), same cost composition, same FIFO ordering
    at every station.  Caller is responsible for checking
    :func:`analytic_supported` first.
    """
    spec = config.spec
    costs = config.costs
    params = config.inter_node   # two ranks, one per node, one switch hop
    omp = DEFAULT_OPENMP_COSTS
    m, n = config.message_bytes, config.partitions
    nthreads = config.threads
    ppt = config.partitions_per_thread
    binding = bind_threads(nthreads, spec)
    sizes = partition_sizes(m, n)
    latency = params.path_latency()
    hot = config.cache != COLD
    copy_bw = spec.cache_bandwidth if hot else spec.memory_bandwidth

    def access(nbytes: int) -> float:
        # Hot: a guaranteed LLC hit (the eligibility footprint check);
        # cold: the per-iteration invalidation makes every copy a miss.
        return nbytes / copy_bw if nbytes else 0.0

    def lock_service(core: int) -> float:
        hold = costs.lock_hold
        if spec.is_remote_to_nic(core):
            hold += costs.lock_remote_penalty
        return (costs.pready_cost + costs.call_overhead + costs.post_cost
                + params.send_overhead + spec.injection_penalty(core) + hold)

    fork = omp.fork_cost(nthreads)
    joinc = omp.join_cost(nthreads)
    wall = [scaled_compute_time(config.compute_seconds,
                                binding.oversubscription_factor(t), spec)
            for t in range(nthreads)]

    # ---- partitioned phase: the station pipeline ---------------------
    # Five FIFO servers; jobs flow thread -> lock -> sender NIC ->
    # receiver progress (eager PDATA arrives here) and, for rendezvous
    # partitions, on around the PRTS -> PCTS -> PDATA loop.  A small
    # chronological merge keeps each server's service order equal to its
    # arrival order, exactly as the DES's FIFO queues do.
    pready = array("d", [0.0]) * n
    arrival = array("d", [0.0]) * n
    free = {"lock": 0.0, "snic": 0.0, "rprog": 0.0,
            "rnic": 0.0, "sprog": 0.0}
    heap: list = []
    seq = 0

    def push(t: float, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, payload))
        seq += 1

    def emit_pready(tid: int, p: int, t: float) -> None:
        # MPI_Pready stamps its event at call time, before any cost.
        pready[p] = t
        if params.is_eager(sizes[p]):
            # Eager bounce-buffer copy runs outside the library lock.
            push(t + access(sizes[p]), "lock", (tid, p))
        else:
            push(t, "lock", (tid, p))

    def chain_next(tid: int, p: int, t: float) -> None:
        if p + 1 < (tid + 1) * ppt:
            emit_pready(tid, p + 1, t)

    for tid in range(nthreads):
        emit_pready(tid, tid * ppt, fork + wall[tid])

    gap = params.injection_gap
    control = params.wire_time(0)

    while heap:
        t, _, kind, payload = heapq.heappop(heap)
        if kind == "lock":
            tid, p = payload
            comp = max(free["lock"], t) + lock_service(binding.core_of(tid))
            free["lock"] = comp
            if params.is_eager(sizes[p]):
                push(comp, "snic", ("pdata", p, True))
            else:
                push(comp, "snic", ("prts", p, False))
            chain_next(tid, p, comp)
        elif kind == "snic":
            what, p, copied = payload
            wire = control if what == "prts" else params.wire_time(sizes[p])
            comp = max(free["snic"], t) + gap + wire
            free["snic"] = comp
            push(comp + latency, "rprog", (what, p, copied))
        elif kind == "rprog":
            what, p, copied = payload
            if what == "pdata":
                cost = params.recv_overhead
                if copied:   # eager partitions copy out of the
                    cost += access(sizes[p])   # bounce buffer
                comp = max(free["rprog"], t) + cost
                free["rprog"] = comp
                arrival[p] = comp
            else:
                comp = max(free["rprog"], t) + costs.post_cost
                free["rprog"] = comp
                push(comp, "rnic", p)
        elif kind == "rnic":
            comp = max(free["rnic"], t) + gap + control
            free["rnic"] = comp
            push(comp + latency, "sprog", payload)
        else:  # sprog
            comp = (max(free["sprog"], t) + costs.post_cost
                    + params.rendezvous_overhead)
            free["sprog"] = comp
            push(comp, "snic", ("pdata", payload, False))

    # ---- single-send phase -------------------------------------------
    join_time = fork + max(wall) + joinc

    # The main thread lives on the NIC socket's first core: no NUMA
    # penalty, no remote lock surcharge, and an uncontended lock.
    entry = (costs.call_overhead + costs.post_cost + params.send_overhead
             + costs.lock_hold)
    if params.is_eager(m):
        pt2pt = (access(m) + entry
                 + gap + params.wire_time(m) + latency
                 + params.match_cost + params.recv_overhead + access(m))
    else:
        pt2pt = (entry
                 + gap + control + latency                       # RTS
                 + params.match_cost + costs.post_cost           # match
                 + gap + control + latency                       # CTS
                 + costs.post_cost + params.rendezvous_overhead
                 + gap + params.wire_time(m) + latency           # RDATA
                 + params.recv_overhead)

    return PartitionTimeline(
        message_bytes=m,
        pready_times=pready,
        arrival_times=arrival,
        join_time=join_time,
        pt2pt_time=pt2pt,
    )


def evaluate_analytic(config: PtpBenchmarkConfig) -> PtpResult:
    """A ``PtpResult`` for a deterministic cell, without a simulator.

    Every measured iteration of a deterministic trial is identical, so
    the one closed-form sample is packed once and repeated
    ``config.iterations`` times.
    The result is marked ``source="analytic"`` with ``trials=0`` — no
    simulation ran — and carries no event digest (there was no event
    stream to hash).
    """
    reason = analytic_supported(config)
    if reason is not None:
        from ..errors import ConfigurationError
        raise ConfigurationError(
            f"config not analytic-eligible: {reason}")
    tl = evaluate_timeline(config)
    one = PtpResult(config=config)
    one.add_sample(0, tl.message_bytes, tl.pready_times, tl.arrival_times,
                   tl.join_time, tl.pt2pt_time)
    result = PtpResult(config=config, source="analytic", trials=0)
    for _ in range(config.iterations):
        result.extend(one)
    result.trim()
    return result
