"""The parallel sweep engine and the content-addressed result cache."""

import json
import struct
import threading

import pytest

from repro.cli import main
from repro.core import (METRIC_NAMES, PtpBenchmarkConfig, ResultCache,
                        SweepStats, config_fingerprint, derive_cell_seed,
                        plan_cells, run_cells, run_ptp_benchmark, sweep_ptp)
from repro.core.parallel import CACHE_SCHEMA_VERSION
from repro.core.runner import EXECUTIONS
from repro.errors import ConfigurationError
from repro.noise import GaussianNoise, UniformNoise
from repro.service.protocol import ProtocolError, parse_sweep_request


def _base(**overrides):
    defaults = dict(message_bytes=64, partitions=1,
                    compute_seconds=1e-4, iterations=2)
    defaults.update(overrides)
    return PtpBenchmarkConfig(**defaults)


SIZES = [1024, 65536]
COUNTS = [1, 4]


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_stable_across_instances(self):
        a = _base(noise=UniformNoise(4.0))
        b = _base(noise=UniformNoise(4.0))
        assert a is not b
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_sensitive_to_every_behavioural_field(self):
        ref = config_fingerprint(_base())
        assert config_fingerprint(_base(message_bytes=128)) != ref
        assert config_fingerprint(_base(partitions=2)) != ref
        assert config_fingerprint(_base(compute_seconds=2e-4)) != ref
        assert config_fingerprint(_base(seed=99)) != ref
        assert config_fingerprint(_base(noise=UniformNoise(4.0))) != ref

    def test_noise_model_parameters_matter(self):
        a = config_fingerprint(_base(noise=UniformNoise(2.0)))
        b = config_fingerprint(_base(noise=UniformNoise(4.0)))
        c = config_fingerprint(_base(noise=GaussianNoise(4.0)))
        assert len({a, b, c}) == 3

    def test_is_hex_sha256(self):
        fp = config_fingerprint(_base())
        assert len(fp) == 64
        int(fp, 16)


class TestDerivedSeeds:
    def test_deterministic(self):
        assert derive_cell_seed(7, 1024, 4) == derive_cell_seed(7, 1024, 4)

    def test_decorrelates_cells_and_base_seeds(self):
        seeds = {derive_cell_seed(7, m, n)
                 for m in SIZES for n in COUNTS}
        seeds.add(derive_cell_seed(8, 1024, 4))
        assert len(seeds) == 5

    def test_plan_cells_uses_derived_seeds(self):
        base = _base(seed=7)
        cells = plan_cells(base, SIZES, COUNTS)
        for cell in cells:
            assert cell.seed == derive_cell_seed(
                7, cell.message_bytes, cell.partitions)

    def test_plan_cells_skips_unsplittable_and_rejects_empty(self, capsys):
        cells = plan_cells(_base(), [2], [1, 4])
        assert [(c.message_bytes, c.partitions) for c in cells] == [(2, 1)]
        for sizes, counts in (([], COUNTS), ([16], [32])):
            with pytest.raises(ConfigurationError):
                plan_cells(_base(), sizes, counts)
        assert main(["sweep", "--sizes", "16", "--counts", "32",
                     "--jobs", "1"]) == 2
        assert "grid is empty" in capsys.readouterr().err
        with pytest.raises(ProtocolError, match="grid is empty"):
            parse_sweep_request({"base": {"message_bytes": 16, "partitions": 1},
                                 "sizes": [16], "counts": [32]})


# ---------------------------------------------------------------------------
# Parallel vs serial equivalence
# ---------------------------------------------------------------------------

class TestParallelEquivalence:
    def test_jobs4_bit_identical_to_jobs1(self):
        base = _base(noise=UniformNoise(4.0), seed=11)
        serial = sweep_ptp(base, SIZES, COUNTS, jobs=1)
        parallel = sweep_ptp(base, SIZES, COUNTS, jobs=4)
        for metric in METRIC_NAMES:
            assert serial.series(metric) == parallel.series(metric)
        # Not just metric-identical: the *full instrumentation streams*
        # (every event, in order, with bit-exact timestamps) match.
        for m in SIZES:
            for n in COUNTS:
                s = serial.point(m, n).result
                p = parallel.point(m, n).result
                assert s.event_digest is not None
                assert s.event_digest == p.event_digest

    def test_parallel_samples_match_exactly(self):
        base = _base(noise=UniformNoise(4.0), seed=11)
        serial = sweep_ptp(base, SIZES, COUNTS, jobs=1)
        parallel = sweep_ptp(base, SIZES, COUNTS, jobs=2)
        for m in SIZES:
            for n in COUNTS:
                s = serial.point(m, n).result.samples
                p = parallel.point(m, n).result.samples
                assert [x.timeline for x in s] == [x.timeline for x in p]
                assert [x.metrics for x in s] == [x.metrics for x in p]

    def test_stats_attached(self):
        sweep = sweep_ptp(_base(), SIZES, COUNTS, jobs=2)
        assert isinstance(sweep.stats, SweepStats)
        assert sweep.stats.jobs == 2
        assert sweep.stats.total_cells == 4
        assert sweep.stats.executed == 4
        assert sweep.stats.cache_hits == 0
        assert "4 cells" in sweep.stats.describe()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_cells(plan_cells(_base(), SIZES, COUNTS), jobs=0)


# ---------------------------------------------------------------------------
# The result cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_hit_roundtrips_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(noise=UniformNoise(4.0)), [1024], [4])[0]
        fresh = run_ptp_benchmark(config)
        cache.put(config, fresh)
        loaded = cache.get(config)
        assert loaded is not None
        assert [s.timeline for s in loaded.samples] == \
            [s.timeline for s in fresh.samples]
        assert [s.metrics for s in loaded.samples] == \
            [s.metrics for s in fresh.samples]

    def test_cached_rerun_executes_zero_simulations(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        base = _base(seed=3)
        first = sweep_ptp(base, SIZES, COUNTS, cache=cache)
        assert first.stats.executed == 4
        assert first.stats.cache_hits == 0
        assert len(cache) == 4

        EXECUTIONS.reset()
        second = sweep_ptp(base, SIZES, COUNTS, cache=cache)
        assert EXECUTIONS.value == 0  # zero simulations ran
        assert second.stats.executed == 0
        assert second.stats.cache_hits == 4
        for metric in METRIC_NAMES:
            assert second.series(metric) == first.series(metric)
        for m in SIZES:
            for n in COUNTS:
                fresh = first.point(m, n).result
                cached = second.point(m, n).result
                assert fresh.event_digest is not None
                assert cached.event_digest == fresh.event_digest

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep_ptp(_base(seed=3), SIZES, COUNTS, cache=cache)
        EXECUTIONS.reset()
        sweep_ptp(_base(seed=3, compute_seconds=2e-4), SIZES, COUNTS,
                  cache=cache)
        assert EXECUTIONS.value == 4  # every cell re-simulated
        assert len(cache) == 8

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        path = cache._path(config_fingerprint(config))
        blob = bytearray(path.read_bytes())
        # The envelope is ``<4sHH``: magic, schema, label length.  Patch
        # the schema halfword to a future version; the entry must read
        # as a miss, never as a crash.
        blob[4:6] = struct.pack("<H", CACHE_SCHEMA_VERSION + 1)
        path.write_bytes(bytes(blob))
        assert cache.get(config) is None
        assert cache.misses == 1

    def test_corrupt_envelope_is_a_miss(self, tmp_path):
        """Every damaged entry is a miss the sweep re-executes, then a hit."""
        cache = ResultCache(tmp_path / "cache", memory_entries=0)
        config = plan_cells(_base(), [1024], [1])[0]
        fresh = run_ptp_benchmark(config)
        cache.put(config, fresh)
        path = cache._path(config_fingerprint(config))
        blob = path.read_bytes()
        overrun = blob[:6] + struct.pack("<H", len(blob)) + blob[8:]
        for damaged in (blob[:len(blob) // 2],   # truncated frame
                        b"",                     # empty file
                        b"\x8f" * 10,            # garbage bytes
                        b"RPC\x01",              # the bare magic
                        overrun):                # label length past the end
            path.write_bytes(damaged)
            misses = cache.misses
            assert cache.get(config) is None
            assert cache.misses == misses + 1
            EXECUTIONS.reset()
            run_cells([config], jobs=1, cache=cache)
            assert EXECUTIONS.value == 1
            assert cache.get(config).event_digest == fresh.event_digest

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert len(cache) == 0
        sweep_ptp(_base(), [1024], [1, 4], cache=cache)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_clear_removes_only_cache_entries(self, tmp_path):
        """``clear`` deletes entries, staging files and the shards they
        leave empty; what else the directory holds stays, and the root
        goes only once nothing is left in it."""
        root = tmp_path / "cache"
        (root / "notes").mkdir(parents=True)
        (root / "notes" / "thesis.tex").write_text("draft")
        (root / "README").write_text("mine")
        cache = ResultCache(root)
        configs = plan_cells(_base(), [1024], [1, 4])
        run_cells(configs, jobs=1, cache=cache)
        staging = cache._path(config_fingerprint(configs[0]))
        staging = staging.with_name(staging.name + ".x1y2z3.tmp")
        staging.write_bytes(b"partial")
        assert cache.get(configs[0]) is not None
        assert cache.clear() == 2
        assert sorted(p.name for p in root.iterdir()) == ["README", "notes"]
        assert (root / "notes" / "thesis.tex").read_text() == "draft"
        assert (root / "README").read_text() == "mine"
        assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0,
                                 "memory_hits": 0, "memory_entries": 0,
                                 "entries": 0}
        (root / "README").unlink()
        (root / "notes" / "thesis.tex").unlink()
        (root / "notes").rmdir()
        run_cells(configs, jobs=1, cache=cache)
        assert cache.clear() == 2
        assert not root.exists()

    def test_len_counts_only_cache_entries(self, tmp_path, capsys):
        """Foreign ``.bin`` files and staging files are not entries: the
        count agrees with what ``clear`` would remove."""
        root = tmp_path / "cache"
        (root / "notes").mkdir(parents=True)
        (root / "notes" / "data.bin").write_bytes(b"x")
        (root / "ab").mkdir()
        (root / "ab" / "data.bin").write_bytes(b"x")
        cache = ResultCache(root)
        staging = cache._path("ab" + "0" * 62)
        staging.with_name(staging.name + ".x1y2z3.tmp").write_bytes(b"x")
        assert len(cache) == 0
        assert main(["cache", "info", "--cache-dir", str(root)]) == 0
        assert "0 entry(ies) on disk" in capsys.readouterr().out
        run_cells(plan_cells(_base(), [1024], [1, 4]), jobs=1, cache=cache)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert (root / "notes" / "data.bin").exists()

    def test_root_under_a_file_is_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        for root in (blocker, blocker / "cache"):
            with pytest.raises(ConfigurationError, match="not a directory"):
                ResultCache(root)

    def test_info_on_a_missing_directory_creates_nothing(self, tmp_path,
                                                        capsys):
        root = tmp_path / "absent"
        assert main(["cache", "info", "--cache-dir", str(root)]) == 0
        assert "0 entry(ies) on disk" in capsys.readouterr().out
        assert not root.exists()

    def test_path_argument_coerced(self, tmp_path):
        cells = plan_cells(_base(), [1024], [1])
        run_cells(cells, jobs=1, cache=str(tmp_path / "cache"))
        _, stats = run_cells(cells, jobs=1, cache=str(tmp_path / "cache"))
        assert stats.cache_hits == 1

    def test_corrupt_timestamp_is_a_miss_that_recomputes(self, tmp_path):
        """Regression: a frame whose timeline fails validation is a miss.

        Overwriting one timestamp used to make the decoder's
        ``ConfigurationError`` escape ``get`` and abort the sweep.
        """
        cache = ResultCache(tmp_path / "cache", memory_entries=0)
        config = plan_cells(_base(), [1024], [1])[0]
        (fresh,), _ = run_cells([config], jobs=1, cache=cache)
        path = cache._path(config_fingerprint(config))
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<d", 1e-300)   # last arrival < pready
        path.write_bytes(bytes(blob))
        (again,), stats = run_cells([config], jobs=1, cache=cache)
        assert stats.cache_hits == 0 and stats.executed == 1
        assert again.event_digest == fresh.event_digest
        assert path.read_bytes() != bytes(blob)   # overwritten
        assert cache.get(config).event_digest == fresh.event_digest

    def test_leftover_v4_json_entry_is_ignored(self, tmp_path, capsys):
        """A pre-v5 ``<fp>.json`` entry is neither read nor counted."""
        root = tmp_path / "cache"
        config = plan_cells(_base(seed=3), [1024], [1])[0]
        fingerprint = config_fingerprint(config)
        legacy = root / fingerprint[:2] / f"{fingerprint}.json"
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps({"schema": 4,
                                      "fingerprint": fingerprint}))
        cache = ResultCache(root)
        assert len(cache) == 0
        EXECUTIONS.reset()
        _, stats = run_cells([config], jobs=1, cache=cache)
        assert EXECUTIONS.value == 1 and stats.cache_hits == 0
        assert legacy.exists()                 # left as it was
        from repro.cli import main
        assert main(["cache", "info", "--cache-dir", str(root)]) == 0
        assert "1 entry(ies) on disk" in capsys.readouterr().out

    def test_parallel_run_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        base = _base(seed=5)
        sweep_ptp(base, SIZES, COUNTS, jobs=2, cache=cache)
        assert len(cache) == 4
        EXECUTIONS.reset()
        again = sweep_ptp(base, SIZES, COUNTS, jobs=2, cache=cache)
        assert EXECUTIONS.value == 0
        assert again.stats.cache_hits == 4


# ---------------------------------------------------------------------------
# The in-process memory tier and result provenance (cache schema v4)
# ---------------------------------------------------------------------------

class TestMemoryTier:
    def test_repeat_get_served_from_memory(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        first = cache.get(config)     # disk read, validates + remembers
        second = cache.get(config)    # memory tier, no JSON parse
        assert first is not None and second is not None
        assert cache.memory_hits == 1
        assert second.event_digest == first.event_digest
        assert [s.timeline for s in second.samples] == \
            [s.timeline for s in first.samples]

    def test_memory_tier_returns_fresh_objects(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        a = cache.get(config)
        b = cache.get(config)
        assert a is not b
        a.event_digest = None         # relabelling one copy must not leak
        assert cache.get(config).event_digest is not None
        # The samples are an immutable tuple of views over a shared record.
        assert isinstance(b.samples, tuple)
        assert b._doubles is cache.get(config)._doubles

    def test_put_invalidates_memory_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(noise=UniformNoise(4.0)), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        cache.get(config)
        fresh = run_ptp_benchmark(config)
        cache.put(config, fresh)      # overwrite drops the memory entry
        loaded = cache.get(config)
        assert cache.memory_hits == 0  # both gets re-read the disk file
        assert loaded.event_digest == fresh.event_digest

    def test_memory_tier_is_bounded(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", memory_entries=2)
        cells = plan_cells(_base(), [1024, 65536], [1, 4])
        for config in cells:
            cache.put(config, run_ptp_benchmark(config))
            cache.get(config)
        assert len(cache._memory) == 2  # LRU evicted the first two

    def test_clear_empties_memory_tier(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        cache.get(config)
        cache.clear()
        assert cache.get(config) is None


class TestCacheCounters:
    def test_clear_resets_counters_with_the_store(self, tmp_path):
        # Regression: clear() used to leave hit/miss history describing
        # entries that no longer existed.
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        assert cache.get(config) is None          # miss
        cache.put(config, run_ptp_benchmark(config))
        cache.get(config)                         # disk hit
        cache.get(config)                         # memory hit
        assert (cache.hits, cache.misses, cache.stores,
                cache.memory_hits) == (2, 1, 1, 1)
        cache.clear()
        assert (cache.hits, cache.misses, cache.stores,
                cache.memory_hits) == (0, 0, 0, 0)
        assert cache.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "stores": 0,
            "memory_hits": 0, "memory_entries": 0}

    def test_stats_snapshot_and_describe(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        cache.get(config)
        cache.get(config)
        s = cache.stats()
        assert s["entries"] == 1
        assert s["hits"] == 2
        assert s["memory_hits"] == 1
        assert s["stores"] == 1
        assert s["memory_entries"] == 1
        line = cache.describe()
        assert "1 entry(ies)" in line
        assert "2 hits (1 memory)" in line


# ---------------------------------------------------------------------------
# Single-flight: identical uncached cells execute exactly once
# ---------------------------------------------------------------------------

class TestSingleFlight:
    def test_duplicate_cells_in_one_grid_execute_once(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(seed=4), [1024], [1])[0]
        cells = [config] * 5
        EXECUTIONS.reset()
        results, stats = run_cells(cells, jobs=1, cache=cache)
        assert EXECUTIONS.value == 1
        assert stats.executed == 1
        assert stats.singleflight_hits == len(cells) - 1
        assert all(r.event_digest == results[0].event_digest
                   for r in results)
        assert results[0].event_digest is not None
        assert "4 single-flight" in stats.describe()

    def test_duplicates_collapse_without_a_cache(self):
        config = plan_cells(_base(seed=4), [1024], [1])[0]
        EXECUTIONS.reset()
        results, stats = run_cells([config] * 3, jobs=1)
        assert EXECUTIONS.value == 1
        assert stats.singleflight_hits == 2
        assert results[0] is results[1] is results[2]


class TestFingerprintMemoization:
    def test_memoized_on_the_instance(self):
        config = _base()
        fp = config_fingerprint(config)
        assert config.__dict__["_fingerprint"] == fp
        assert config_fingerprint(config) == fp


class TestProvenanceRoundTrip:
    def test_trials_and_source_survive_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(noise=UniformNoise(4.0)), [1024], [4])[0]
        (result,), _ = run_cells([config], jobs=1)
        assert result.trials == 1
        cache.put(config, result)
        loaded = cache.get(config)
        assert loaded is not None
        assert loaded.source == "des"
        assert loaded.trials == 1
        assert loaded.event_digest == result.event_digest

    def test_trials_aggregate_across_worker_processes(self):
        """--jobs N must report the same trial total as a serial run."""
        base = _base(noise=UniformNoise(4.0), seed=11)
        cells = plan_cells(base, SIZES, COUNTS)
        serial, s_stats = run_cells(cells, jobs=1)
        parallel, p_stats = run_cells(cells, jobs=2)
        assert s_stats.trials == sum(r.trials for r in serial) == len(cells)
        assert p_stats.trials == s_stats.trials
        for s, p in zip(serial, parallel):
            assert s.trials == p.trials
            assert s.event_digest == p.event_digest


# ---------------------------------------------------------------------------
# Result-plane concurrency regressions
# ---------------------------------------------------------------------------

class TestResultPlaneConcurrency:
    def test_racing_puts_on_one_fingerprint_leave_a_valid_entry(
            self, tmp_path):
        """Writers sharing a cache root race ``put`` on one fingerprint.

        Regression: every writer staged in ``<fingerprint>.bin.tmp``, so
        one writer's rename moved the file another was still filling and
        that writer's own rename raised ``FileNotFoundError``.
        """
        config = plan_cells(_base(), [1024], [1])[0]
        result = run_ptp_benchmark(config)
        errors = []

        def writer():
            cache = ResultCache(tmp_path / "cache", memory_entries=0)
            for _ in range(100):
                try:
                    cache.put(config, result)
                except Exception as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        loaded = ResultCache(tmp_path / "cache").get(config)
        assert loaded is not None
        assert loaded.event_digest == result.event_digest
        assert list((tmp_path / "cache").rglob("*.tmp")) == []

    def test_stats_does_not_hold_lock_during_disk_count(self, tmp_path,
                                                        monkeypatch):
        """stats() must count disk entries outside the cache lock.

        Regression: stats() used to call ``len(self)`` — a glob over the
        whole shard tree — while holding ``self._lock``, so a slow disk
        walk (or just a big cache) stalled every concurrent put behind
        it.  A stats() stuck mid-count must not block put().
        """
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        result = run_ptp_benchmark(config)
        entered = threading.Event()
        release = threading.Event()

        def slow_len(self):
            entered.set()
            assert release.wait(30.0), "test never released the count"
            return 0

        # Dunder lookups go through the type, so patch the class.
        monkeypatch.setattr(ResultCache, "__len__", slow_len)
        stats_thread = threading.Thread(target=cache.stats)
        stats_thread.start()
        try:
            assert entered.wait(10.0), "stats() never reached the count"
            stored = threading.Event()

            def use_lock():
                cache.put(config, result)
                stored.set()

            threading.Thread(target=use_lock, daemon=True).start()
            assert stored.wait(5.0), \
                "put() blocked behind stats()'s disk walk"
        finally:
            release.set()
            stats_thread.join(timeout=10.0)
