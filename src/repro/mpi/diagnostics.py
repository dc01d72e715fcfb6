"""Runtime diagnostics: where did the simulated time and contention go?

The paper positions its suite as "a tool for developers to evaluate their
designs".  This module turns the substrate's built-in accounting — library
lock contention, matching-queue depths and scan counts, NIC utilization,
cache behaviour — into one per-rank report, so a design change (say, a
different pready cost or binding policy) can be judged by *why* it moved
the metrics, not just by how much.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..obs import CounterSink
from ..sim import MutexStats

__all__ = ["RankDiagnostics", "cluster_report", "collect_diagnostics"]


@dataclass(frozen=True)
class RankDiagnostics:
    """One rank's accounting snapshot."""

    rank: int
    lock_acquisitions: int
    lock_contention_ratio: float
    lock_wait_time: float
    lock_hold_time: float
    posted_matches: int
    unexpected_matches: int
    elements_scanned: int
    max_posted_depth: int
    max_unexpected_depth: int
    nic_messages: int
    nic_bytes: int
    nic_busy_time: float
    nic_max_queue: int
    cache_hit_ratio: float
    cache_invalidations: int
    #: Instrumentation events attributed to this rank by a
    #: :class:`repro.obs.CounterSink` (0 when none was subscribed).
    events_observed: int = 0

    @property
    def mean_scan_length(self) -> float:
        """Average queue elements walked per match attempt."""
        attempts = self.posted_matches + self.unexpected_matches
        return self.elements_scanned / attempts if attempts else 0.0


def collect_diagnostics(
        cluster,
        counters: Optional[CounterSink] = None) -> List[RankDiagnostics]:
    """Snapshot every rank's counters from a (finished) cluster run.

    Pass the :class:`repro.obs.CounterSink` that observed the run to
    fold per-rank event totals into the snapshot.
    """
    out: List[RankDiagnostics] = []
    for proc in cluster.procs:
        lock: MutexStats = proc.lock.stats
        match = proc.matching.stats
        nic = proc.nic.stats
        cache = proc.cache.stats
        out.append(RankDiagnostics(
            rank=proc.rank,
            lock_acquisitions=lock.acquisitions,
            lock_contention_ratio=lock.contention_ratio,
            lock_wait_time=lock.total_wait_time,
            lock_hold_time=lock.total_hold_time,
            posted_matches=match.posted_matches,
            unexpected_matches=match.unexpected_matches,
            elements_scanned=match.elements_scanned,
            max_posted_depth=match.max_posted_depth,
            max_unexpected_depth=match.max_unexpected_depth,
            nic_messages=nic.messages,
            nic_bytes=nic.bytes,
            nic_busy_time=nic.busy_time,
            nic_max_queue=nic.max_queue,
            cache_hit_ratio=cache.hit_ratio,
            cache_invalidations=cache.invalidations,
            events_observed=(sum(counters.rank_counts(proc.rank).values())
                             if counters is not None else 0),
        ))
    return out


def cluster_report(cluster,
                   counters: Optional[CounterSink] = None) -> str:
    """Render the per-rank diagnostics as a text table.

    With a :class:`repro.obs.CounterSink` that observed the run, each
    rank's row gains an ``events`` column and a per-kind event-count
    table is appended.
    """
    from ..core.report import ascii_table  # local import: avoid cycle

    diags = collect_diagnostics(cluster, counters=counters)
    headers = ["rank", "lock acq", "contended", "lock wait",
               "matches (p/u)", "scan avg", "q depth (p/u)",
               "nic msgs", "nic MiB", "nic busy", "cache hit"]
    if counters is not None:
        headers.append("events")
    rows = []
    for d in diags:
        row = [
            str(d.rank),
            str(d.lock_acquisitions),
            f"{d.lock_contention_ratio * 100:.0f}%",
            f"{d.lock_wait_time * 1e3:.2f}ms",
            f"{d.posted_matches}/{d.unexpected_matches}",
            f"{d.mean_scan_length:.1f}",
            f"{d.max_posted_depth}/{d.max_unexpected_depth}",
            str(d.nic_messages),
            f"{d.nic_bytes / (1 << 20):.1f}",
            f"{d.nic_busy_time * 1e3:.2f}ms",
            f"{d.cache_hit_ratio * 100:.0f}%",
        ]
        if counters is not None:
            row.append(str(d.events_observed))
        rows.append(row)
    report = ascii_table(headers, rows,
                         title=f"cluster diagnostics at t="
                               f"{cluster.now * 1e3:.3f}ms")
    if counters is not None:
        count_rows = [[kind, str(rank), str(n)]
                      for kind, rank, n in counters.rows()]
        report += "\n\n" + ascii_table(
            ["event kind", "rank", "count"], count_rows,
            title=f"event counts ({counters.total} total)")
    return report
