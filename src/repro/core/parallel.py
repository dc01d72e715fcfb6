"""Parallel sweep execution with content-addressed result caching.

Every figure of the paper is a grid of *independent, deterministic*
simulations: each cell builds its own two-rank cluster from its own
config, so cells can run in any order — or concurrently — without
changing a single bit of any result.  This module exploits that twice:

* :func:`run_cells` drains every executed cell through one
  :class:`~repro.core.pool.PoolRun` — on a passed-in pool, on the
  process-wide :func:`~repro.core.pool.shared_pool` for ``jobs > 1``,
  or inline in the calling thread for ``jobs=1`` — reassembling
  streamed results in the serial cell order, so a parallel sweep is
  bit-identical to ``jobs=1`` and a reused warm pool is bit-identical
  to both.
  Under an :class:`~repro.metrics.AdaptiveTrialPlanner` the unit of
  pool work shrinks from a cell to a single trial, so CI-targeted
  refinement of one noisy cell overlaps with every other cell's trials.
* :class:`ResultCache` is a content-addressed store keyed by
  :func:`config_fingerprint` — a stable hash of the *fully resolved*
  :class:`~repro.core.config.PtpBenchmarkConfig`, substrate presets
  included.  Re-running a figure only computes cells whose configuration
  actually changed; everything else is reloaded losslessly from its
  :mod:`~repro.core.wire` frame.

Determinism is preserved by construction: per-cell seeds are derived from
the base seed and the cell coordinates (:func:`derive_cell_seed`), never
from execution order, and workers ship raw timelines back to the parent,
which recomputes the derived metrics exactly as a serial run would.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import struct
import tempfile
import threading
from collections import OrderedDict
from enum import Enum
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..errors import ConfigurationError
from .config import PtpBenchmarkConfig
from .pool import PoolRun, PoolRunStats, WorkerPool, shared_pool
from .runner import PtpResult
from .wire import WireError, decode_result, encode_result

__all__ = ["CACHE_SCHEMA_VERSION", "FINGERPRINT_VERSION", "ANALYTIC_MODES",
           "SweepStats", "ResultCache", "config_fingerprint",
           "derive_cell_seed", "plan_cells", "run_cells"]

#: Bumped whenever cached entries become unreadable by newer code (layout
#: changes).  The cache is derived data: an entry of another schema is a
#: miss, recomputed and overwritten on the next put.
#: 2: results carry the instrumentation-stream digest (repro.obs).
#: 3: results carry the fault outcome (repro.faults).
#: 4: results carry their provenance (source + merged trial count).
#: 5: values are binary wire frames (repro.core.wire) instead of JSON.
CACHE_SCHEMA_VERSION = 5

#: Mixed into :func:`config_fingerprint` — bumped only when *simulation
#: semantics* change, so stored results are actually stale.  The v5
#: on-disk format change was layout-only (the same timelines, digests,
#: and provenance, packed differently), so fingerprints stayed at 4.
FINGERPRINT_VERSION = 4

#: Cache entry envelope: magic, schema, label length; the config label
#: (debuggability only) and the wire frame follow.
_CACHE_MAGIC = b"RPC\x01"
_ENVELOPE = struct.Struct("<4sHH")


# ---------------------------------------------------------------------------
# Content-addressed config fingerprinting
# ---------------------------------------------------------------------------

def _canonical(value):
    """A JSON-able canonical form of any config component.

    Frozen dataclasses (the config itself, machine/network/cost presets)
    expand field by field; enums collapse to their values; noise models and
    other plain objects expand to class name + public attributes, so two
    configs fingerprint equal exactly when every simulated-behaviour input
    is equal.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return _canonical(value.value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {
            str(k): _canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    attrs = getattr(value, "__dict__", None)
    if attrs is None:
        raise ConfigurationError(
            f"cannot fingerprint config component {value!r}")
    state = {
        k: _canonical(v)
        for k, v in sorted(attrs.items())
        if not k.startswith("_")
    }
    return {"__class__": type(value).__name__, **state}


def config_fingerprint(config: PtpBenchmarkConfig,
                       salt: Optional[str] = None) -> str:
    """Stable SHA-256 hex digest of a fully resolved benchmark config.

    Two configs share a fingerprint iff every field — sizes, counts, noise
    model and its parameters, cache mode, impl, iteration counts, seed, and
    the whole machine/network/cost substrate — is equal.  The digest is
    stable across processes and Python versions (no use of ``hash()``).

    The base digest is memoized on the (frozen) config instance — a
    sweep fingerprints each cell several times (cache get, cache put,
    memory tier), and canonicalizing the whole substrate again each time
    was pure waste.  ``salt`` mixes an execution-policy discriminator
    into the digest (e.g. an adaptive planner's settings) so results
    produced under different policies never alias; the memoized base is
    unaffected.
    """
    fingerprint = config.__dict__.get("_fingerprint")
    if fingerprint is None:
        # Keyed by FINGERPRINT_VERSION, *not* the on-disk schema: a
        # layout-only schema bump must keep every identity stable.
        payload = {"schema": FINGERPRINT_VERSION,
                   "config": _canonical(config)}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        fingerprint = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        # The config is a frozen dataclass; stash via object.__setattr__.
        # ``_canonical`` walks declared fields only, so the memo can
        # never leak into another config's digest.
        object.__setattr__(config, "_fingerprint", fingerprint)
    if salt is not None:
        fingerprint = hashlib.sha256(
            f"{fingerprint}|{salt}".encode("utf-8")).hexdigest()
    return fingerprint


def derive_cell_seed(base_seed: int, message_bytes: int,
                     partitions: int, trial: int = 0) -> int:
    """Deterministic per-cell seed, independent of execution order.

    Mixes the sweep's base seed with the cell coordinates through SHA-256,
    so every cell gets a decorrelated noise stream and serial, parallel,
    and cached runs of the same grid all see identical draws.

    ``trial`` decorrelates the extra repetitions an
    :class:`~repro.metrics.AdaptiveTrialPlanner` appends to one cell.
    Trial 0 reuses the cell's own seed blob (bit-compatible with every
    seed derived before the planner existed).
    """
    blob = f"{base_seed}|{message_bytes}|{partitions}"
    if trial:
        blob += f"|t{trial}"
    return int.from_bytes(
        hashlib.sha256(blob.encode("utf-8")).digest()[:8], "little")


# ---------------------------------------------------------------------------
# The content-addressed result cache
# ---------------------------------------------------------------------------

class ResultCache:
    """Content-addressed store of :class:`PtpResult` objects on disk.

    Layout: ``<root>/<first two hex chars>/<fingerprint>.bin`` —
    git-object-style fingerprint-prefix shards, one file per
    configuration, each a small envelope around a binary
    :mod:`~repro.core.wire` frame (schema v5).  Entries are written
    atomically (a per-writer temp file + rename) and reads take no lock
    of any kind, so concurrent sweeps sharing a cache directory cannot
    corrupt or block each other.  Hit/miss/store counters accumulate
    across calls and feed the sweep report; :meth:`stats` snapshots them.

    An in-process LRU tier (``memory_entries`` results, the first slice
    of the ROADMAP sweep-service memory tier) sits in front of the disk
    reads: repeated gets for the same cell — report regeneration,
    comparison runs, a service loop — skip the decode entirely.
    ``memory_hits`` counts the gets it absorbed (also included in
    ``hits``).

    All bookkeeping is thread-safe; a cache instance may be shared by
    concurrent sweeps.  The cache stores and serves results; it does not
    collapse concurrent computations of one fingerprint — the service
    scheduler, the one place that runs sweeps concurrently, does.
    """

    def __init__(self, root: Union[str, pathlib.Path],
                 memory_entries: int = 128):
        if memory_entries < 0:
            raise ConfigurationError(
                f"memory_entries must be >= 0: {memory_entries}")
        self.root = pathlib.Path(root)
        #: The root as a string: gets build their path by formatting,
        #: which costs a fraction of two pathlib joins.
        self._root = os.fspath(self.root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.memory_hits = 0
        self._memory_entries = memory_entries
        #: fingerprint -> a decoded result, kept without its config (each
        #: get supplies one); every get hands out a new result sharing
        #: its packed record, which is never written once built.
        self._memory: "OrderedDict[str, PtpResult]" = OrderedDict()
        self._lock = threading.Lock()

    def _file(self, fingerprint: str) -> str:
        return f"{self._root}/{fingerprint[:2]}/{fingerprint}.bin"

    def _path(self, fingerprint: str) -> pathlib.Path:
        return pathlib.Path(self._file(fingerprint))

    def _remember(self, fingerprint: str, result: PtpResult) -> None:
        if self._memory_entries == 0:
            return
        kept = result.with_config(None)
        with self._lock:
            self._memory[fingerprint] = kept
            self._memory.move_to_end(fingerprint)
            while len(self._memory) > self._memory_entries:
                self._memory.popitem(last=False)

    def get(self, config: PtpBenchmarkConfig,
            salt: Optional[str] = None) -> Optional[PtpResult]:
        """The cached result for ``config``, or None (counted as a miss).

        The returned result carries the *live* ``config`` object, so it is
        indistinguishable from a freshly computed one; metrics are
        recomputed from the stored timelines, which round-trip exactly.
        ``salt`` must match the one the result was stored under.
        """
        fingerprint = config_fingerprint(config, salt)
        with self._lock:
            entry = self._memory.get(fingerprint)
            if entry is not None:
                self._memory.move_to_end(fingerprint)
                self.hits += 1
                self.memory_hits += 1
        if entry is not None:
            return entry.with_config(config)
        try:
            with open(self._file(fingerprint), "rb", buffering=0) as handle:
                blob = handle.read()
            magic, schema, label_len = _ENVELOPE.unpack_from(blob, 0)
        except (OSError, struct.error):
            with self._lock:
                self.misses += 1
            return None
        if magic != _CACHE_MAGIC or schema != CACHE_SCHEMA_VERSION:
            with self._lock:
                self.misses += 1
            return None
        try:
            result = decode_result(
                config, memoryview(blob)[_ENVELOPE.size + label_len:])
        except WireError:
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        self._remember(fingerprint, result)
        return result

    def _write(self, fingerprint: str, label: str, frame: bytes) -> None:
        path = self._path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        encoded = label.encode("utf-8")[:0xFFFF]
        payload = _ENVELOPE.pack(_CACHE_MAGIC, CACHE_SCHEMA_VERSION,
                                 len(encoded)) + encoded + frame
        # Each writer stages in its own temp file: a shared name would let
        # one writer's rename move the file another is still filling.
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def put(self, config: PtpBenchmarkConfig, result: PtpResult,
            salt: Optional[str] = None) -> None:
        """Store ``result`` under ``config``'s fingerprint (atomic)."""
        fingerprint = config_fingerprint(config, salt)
        self._write(fingerprint, config.label(), encode_result(result))
        with self._lock:
            self.stores += 1
            # The memory tier holds *validated reads* only — remembering
            # the put here would let a get return an entry that no longer
            # matches what is on disk (e.g. after an external rewrite).
            # The first get pays one decode; every later one is free.
            self._memory.pop(fingerprint, None)

    # -- maintenance ------------------------------------------------------

    def __len__(self) -> int:
        """Number of (current-schema) entries on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.bin"))

    def stats(self) -> Dict[str, int]:
        """Snapshot of the counters plus the on-disk entry count.

        The counters are snapshotted atomically under the lock; the
        on-disk entry count — a glob over the whole shard tree — is
        taken *after* the lock is released.  Holding the lock across
        that filesystem walk would stall every concurrent ``put`` and
        memory-tier ``get`` behind disk latency, which a
        many-client service polling ``/stats`` would turn into a
        periodic whole-cache convoy.
        """
        with self._lock:
            snapshot = {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "memory_hits": self.memory_hits,
                "memory_entries": len(self._memory),
            }
        snapshot["entries"] = len(self)
        return snapshot

    def describe(self) -> str:
        """One-line cache summary for reports and the CLI."""
        s = self.stats()
        return (f"cache at {self.root}: {s['entries']} entry(ies), "
                f"{s['hits']} hits ({s['memory_hits']} memory), "
                f"{s['misses']} misses, {s['stores']} stored")

    def clear(self) -> int:
        """Delete every entry and reset *all* counters with the store.

        Returns how many entries were on disk.  Counters are part of the
        cleared state: a cleared cache reports like a fresh one instead
        of carrying hit/miss history for entries that no longer exist.
        """
        removed = len(self)
        if self.root.exists():
            shutil.rmtree(self.root)
        with self._lock:
            self._memory.clear()
            self.hits = 0
            self.misses = 0
            self.stores = 0
            self.memory_hits = 0
        return removed


# ---------------------------------------------------------------------------
# The execution engine
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SweepStats:
    """How a sweep's cells were produced — the report's provenance line."""

    jobs: int = 1
    total_cells: int = 0
    executed: int = 0
    cache_hits: int = 0
    #: Cells answered by the closed-form evaluator (no simulation).
    analytic: int = 0
    #: Benchmark trials simulated across all executed cells — worker
    #: processes included (their counts ship back with the results), so
    #: this is accurate under ``jobs > 1`` where the in-process
    #: ``ExecutionCounter`` by design is not.
    trials: int = 0
    #: Cells answered by sharing another identical cell's execution
    #: instead of executing or reading a stored entry: duplicates in this
    #: grid, or, in the service scheduler's lifetime total, requests that
    #: rode a request already running for the same fingerprint.
    singleflight_hits: int = 0
    #: The worker-pool counters of this sweep's pooled drains (warm and
    #: inline tasks).  ``None`` when every drain ran inline (``jobs=1``):
    #: worker counters describe a pool, and the inline path has none.
    pool: Optional[PoolRunStats] = None

    @property
    def cache_misses(self) -> int:
        """Cells that had to be computed despite a cache being attached."""
        return self.total_cells - self.cache_hits

    def absorb(self, other: "SweepStats") -> None:
        """Accumulate another sweep's counters (multi-sweep totals)."""
        self.total_cells += other.total_cells
        self.executed += other.executed
        self.cache_hits += other.cache_hits
        self.analytic += other.analytic
        self.trials += other.trials
        self.singleflight_hits += other.singleflight_hits
        if other.pool is not None:
            if self.pool is None:
                self.pool = PoolRunStats()
            self.pool.absorb(other.pool)

    def describe(self) -> str:
        """One-line summary for sweep reports."""
        line = (f"{self.total_cells} cells: {self.executed} executed "
                f"({self.trials} trials)")
        if self.analytic:
            line += f", {self.analytic} analytic"
        line += f", {self.cache_hits} cache hits"
        if self.singleflight_hits:
            line += f", {self.singleflight_hits} single-flight"
        if self.pool is not None:
            line += f", {self.pool.warm_tasks} warm"
            if self.pool.inline_tasks:
                line += f", {self.pool.inline_tasks} inline"
        line += f" (jobs={self.jobs})"
        return line


def plan_cells(base: PtpBenchmarkConfig,
               message_sizes: Sequence[int],
               partition_counts: Sequence[int]) -> List[PtpBenchmarkConfig]:
    """Resolve a grid into its per-cell configs, in serial sweep order.

    A size or count below 1 raises.  Cells where the message is smaller
    than the partition count are skipped (they cannot be split), matching
    how the paper's figures leave those cells empty; a grid with no cell
    left raises.  Each cell's seed comes from :func:`derive_cell_seed`.
    """
    if not message_sizes or not partition_counts:
        raise ConfigurationError("sweep needs at least one size and count")
    for name, values in (("message_bytes", message_sizes),
                         ("partitions", partition_counts)):
        for value in values:
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1: {value}")
    cells: List[PtpBenchmarkConfig] = []
    for n in partition_counts:
        for m in message_sizes:
            if m < n:
                continue
            cells.append(base.with_overrides(
                message_bytes=m, partitions=n,
                seed=derive_cell_seed(base.seed, m, n)))
    if not cells:
        raise ConfigurationError(
            "sweep grid is empty: every message size is smaller than "
            "its partition count")
    return cells


def _run_pooled(run: PoolRun,
                pending: List[Tuple[int, PtpBenchmarkConfig]],
                results: Dict[int, PtpResult],
                planner=None) -> None:
    """Stream the pending cells through one :class:`PoolRun`.

    Plain (or deterministic) cells are whole-cell tasks keyed
    ``(cell, -1)``.  Under a planner, each nondeterministic cell is
    decomposed into per-trial tasks keyed ``(cell, trial)``; follow-up
    batches are submitted the moment a cell's scheduled trials have all
    streamed back, decided by the planner's
    :meth:`~repro.metrics.AdaptiveTrialPlanner.plan_next` on the
    trial-ordered results — so trial counts and merged digests do not
    depend on the pool, its size, or completion order, while one cell's
    refinement overlaps every other cell's work.
    """
    configs = dict(pending)
    #: (cell, trial) -> the reseeded config that trial runs.
    trial_cfgs: Dict[Tuple[int, int], PtpBenchmarkConfig] = {}
    trial_results: Dict[int, Dict[int, PtpResult]] = {}
    scheduled: Dict[int, int] = {}

    def submit_trials(i: int, count: int) -> None:
        start = scheduled.get(i, 0)
        for t, cfg in enumerate(
                planner.trial_configs(configs[i], start, count), start):
            trial_cfgs[i, t] = cfg
            run.submit((i, t), cfg)
        scheduled[i] = start + count

    for i, config in pending:
        if planner is not None and not config.is_deterministic:
            trial_results[i] = {}
            submit_trials(i, planner.plan_next(config, []))
        else:
            run.submit((i, -1), config)

    for (i, t), frame in run.results():
        config = configs[i]
        if t < 0:
            results[i] = decode_result(config, frame)
            continue
        done = trial_results[i]
        done[t] = decode_result(trial_cfgs.pop((i, t)), frame)
        if len(done) < scheduled[i]:
            continue
        ordered = [done[trial] for trial in range(len(done))]
        more = planner.plan_next(config, ordered)
        if more:
            submit_trials(i, more)
        else:
            results[i] = planner.merge_trials(config, ordered)


#: ``analytic`` dispatch modes accepted by :func:`run_cells`.
ANALYTIC_MODES = ("off", "auto", "only")


def run_cells(cells: Sequence[PtpBenchmarkConfig],
              jobs: Optional[int] = None,
              cache: Optional[Union[ResultCache, str, pathlib.Path]] = None,
              progress: Optional[Callable[[PtpBenchmarkConfig], None]] = None,
              analytic: str = "off",
              planner=None,
              pool: Optional[WorkerPool] = None,
              ) -> Tuple[List[PtpResult], SweepStats]:
    """Produce one result per cell, in order; the engine behind sweeps.

    Parameters
    ----------
    cells:
        Fully resolved configs, e.g. from :func:`plan_cells`.
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``.  Without a
        ``pool``, ``jobs > 1`` runs on the process-wide
        :func:`~repro.core.pool.shared_pool` and ``jobs=1`` runs every
        task inline in this thread — through the same drain and wire
        frame, with no process, queue, or pipe.  Results are
        identical either way.
    cache:
        A :class:`ResultCache`, or a path to create one at, or ``None`` to
        always simulate.  Hits skip simulation entirely; fresh results are
        stored back.
    progress:
        Called with each cell's config as it is *planned* (before any
        simulation), mirroring the serial sweep's callback contract.
    analytic:
        ``"off"`` (default) simulates every cell; ``"auto"`` answers
        analytic-eligible cache misses with the closed-form evaluator
        (:mod:`repro.analytic`) and simulates the rest; ``"only"``
        raises on any cell the evaluator cannot answer.  Analytic
        results carry ``source="analytic"`` and are *not* written to the
        cache — the evaluator is already faster than a disk read.
    planner:
        An :class:`~repro.metrics.AdaptiveTrialPlanner`; nondeterministic
        DES cells then run trials until their CI target is met.  Planned
        results are cached under a planner-salted fingerprint so they
        never alias fixed-trial entries.  Each trial is its own task, so
        on a pool one cell's refinement overlaps other cells.
    pool:
        A live :class:`~repro.core.pool.WorkerPool` to execute on — its
        warm workers are reused and left running (the sweep-service
        execution path).  Overrides ``jobs``.

    Identical uncached cells in ``cells`` execute once; the duplicates
    share the first one's result.  Cache hits and analytic answers never
    reach the pool.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1: {jobs}")
    if analytic not in ANALYTIC_MODES:
        raise ConfigurationError(
            f"analytic must be one of {ANALYTIC_MODES}: {analytic!r}")
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    # Imported lazily: repro.analytic imports this package's runner, so a
    # module-scope import would be circular for ``import repro.analytic``.
    if analytic != "off":
        from ..analytic import analytic_supported, evaluate_analytic

    def cell_salt(config: PtpBenchmarkConfig) -> Optional[str]:
        # The planner only changes what runs for nondeterministic cells;
        # deterministic ones stay bit-compatible with unplanned entries.
        if planner is not None and not config.is_deterministic:
            return planner.cache_salt()
        return None

    stats = SweepStats(jobs=jobs, total_cells=len(cells))
    results: Dict[int, PtpResult] = {}
    pending: List[Tuple[int, PtpBenchmarkConfig]] = []
    #: fingerprint -> leader cell index, for cells this call executes.
    leaders: Dict[str, int] = {}
    #: This grid's duplicate cells: they share the leader's result.
    followers: List[Tuple[int, str]] = []
    for i, config in enumerate(cells):
        if progress is not None:
            progress(config)
        cached = (cache.get(config, salt=cell_salt(config))
                  if cache is not None else None)
        if cached is not None:
            results[i] = cached
            stats.cache_hits += 1
            continue
        if analytic != "off":
            reason = analytic_supported(config)
            if reason is None:
                results[i] = evaluate_analytic(config)
                stats.analytic += 1
                continue
            if analytic == "only":
                raise ConfigurationError(
                    f"analytic=only, but cell {config.label()} needs the "
                    f"simulator: {reason}")
        # Single-flight: identical uncached cells execute exactly once.
        fingerprint = config_fingerprint(config, cell_salt(config))
        if fingerprint in leaders:
            followers.append((i, fingerprint))
            stats.singleflight_hits += 1
            continue
        leaders[fingerprint] = i
        pending.append((i, config))

    stats.executed = len(pending)
    if pending:
        engine = pool
        if engine is None and jobs > 1:
            engine = shared_pool(jobs)
        run = PoolRun(engine, len(pending))
        _run_pooled(run, pending, results, planner)
        if engine is not None:
            # Worker counters describe a pool; the inline path has none.
            stats.pool = run.stats
        for i, config in pending:
            stats.trials += results[i].trials
            if cache is not None:
                cache.put(config, results[i], salt=cell_salt(config))

    for i, fingerprint in followers:
        # Duplicate configs are bit-identical by construction, so the
        # leader's (immutable-sample) result is shared as-is.
        results[i] = results[leaders[fingerprint]]

    return [results[i] for i in range(len(cells))], stats
