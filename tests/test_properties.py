"""Property-based tests (hypothesis) on core data structures and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (PartitionTimeline, PtpMetrics, pruned_mean,
                           trim_outliers)
from repro.mpi import Envelope, MatchingEngine
from repro.network import NetworkParams
from repro.noise import GaussianNoise, SingleThreadNoise, UniformNoise
from repro.partitioned import partition_sizes
from repro.proxy import process_grid, project_speedup
from repro.sim import Simulator
from repro.sim.rng import Generator
from repro.threadsim import SimBarrier


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []

        def proc(d):
            yield sim.timeout(d)
            fired.append(sim.now)

        for d in delays:
            sim.process(proc(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
        assert sim.now == max(delays)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                              st.floats(min_value=0, max_value=100)),
                    min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_chained_timeouts_accumulate(self, pairs):
        sim = Simulator()
        ends = []

        def proc(a, b):
            yield sim.timeout(a)
            yield sim.timeout(b)
            ends.append(sim.now)

        for a, b in pairs:
            sim.process(proc(a, b))
        sim.run()
        assert sorted(ends) == sorted(a + b for a, b in pairs)


class TestPartitionSizesProperties:
    @given(st.integers(min_value=1, max_value=1 << 26),
           st.integers(min_value=1, max_value=512))
    @settings(max_examples=200)
    def test_sizes_sum_and_balance(self, nbytes, parts):
        if nbytes < parts:
            with pytest.raises(Exception):
                partition_sizes(nbytes, parts)
            return
        sizes = partition_sizes(nbytes, parts)
        assert len(sizes) == parts
        assert sum(sizes) == nbytes
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 1


class TestMatchingProperties:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_fifo_matching_preserves_posting_order(self, envelopes):
        """Arrivals always match the earliest compatible posted receive."""
        eng = MatchingEngine()
        for i, (src, tag) in enumerate(envelopes):
            eng.post_recv(("req", i, src, tag), source=src, tag=tag,
                          comm_id=0)
        matched_order = []
        for src, tag in envelopes:
            entry, _ = eng.match_arrival(Envelope(src, tag, 0))
            assert entry is not None
            matched_order.append(entry.request[1])
        # For each (src, tag) class, matched indices must be increasing.
        by_class = {}
        for idx in matched_order:
            _, i, src, tag = ("req", idx, *envelopes[idx])
            by_class.setdefault((src, tag), []).append(idx)
        for indices in by_class.values():
            assert indices == sorted(indices)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_unexpected_then_posted_conservation(self, tags):
        """Every stored unexpected frame is found exactly once."""
        eng = MatchingEngine()
        for i, tag in enumerate(tags):
            eng.store_unexpected(("frame", i), Envelope(0, tag, 0),
                                 now=float(i))
        found = 0
        for tag in tags:
            hit, _ = eng.find_unexpected(source=0, tag=tag, comm_id=0)
            assert hit is not None
            found += 1
        assert found == len(tags)
        assert eng.find_unexpected(source=0, tag=tags[0], comm_id=0) == \
            (None, 0)


class TestNetworkProperties:
    @given(st.integers(min_value=0, max_value=1 << 28))
    @settings(max_examples=100)
    def test_wire_time_monotone_in_size(self, nbytes):
        p = NetworkParams()
        assert p.wire_time(nbytes + 4096) >= p.wire_time(nbytes) > 0

    @given(st.integers(min_value=1, max_value=1 << 24),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=100)
    def test_splitting_never_reduces_total_wire_time(self, nbytes, parts):
        """Headers make n partitions cost at least one whole message."""
        if nbytes < parts:
            return
        p = NetworkParams()
        whole = p.wire_time(nbytes)
        split = sum(p.wire_time(s) for s in partition_sizes(nbytes, parts))
        assert split >= whole - 1e-15


class TestNoiseProperties:
    @given(st.integers(min_value=1, max_value=128),
           st.floats(min_value=1e-6, max_value=1.0),
           st.floats(min_value=0.0, max_value=100.0),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=100)
    def test_uniform_noise_bounds(self, nthreads, comp, pct, seed):
        rng = Generator(seed)
        times = UniformNoise(pct).compute_times(rng, nthreads, comp)
        assert len(times) == nthreads
        assert all(t >= comp - 1e-15 for t in times)
        assert all(t <= comp * (1 + pct / 100) + 1e-12 for t in times)

    @given(st.integers(min_value=1, max_value=128),
           st.floats(min_value=1e-6, max_value=1.0),
           st.floats(min_value=0.0, max_value=100.0),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=100)
    def test_single_thread_noise_delays_at_most_one(self, nthreads, comp,
                                                    pct, seed):
        rng = Generator(seed)
        times = SingleThreadNoise(pct).compute_times(rng, nthreads, comp)
        assert sum(t > comp for t in times) <= 1
        if nthreads > 1:
            # At least one thread always runs clean.
            assert min(times) == pytest.approx(comp)

    @given(st.integers(min_value=1, max_value=128),
           st.floats(min_value=1e-6, max_value=1.0),
           st.floats(min_value=0.0, max_value=500.0),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=100)
    def test_gaussian_noise_non_negative(self, nthreads, comp, pct, seed):
        rng = Generator(seed)
        times = GaussianNoise(pct).compute_times(rng, nthreads, comp)
        assert all(t >= 0.0 for t in times)


class TestMetricProperties:
    timelines = st.builds(
        lambda preadys, durations, join, pt2pt: PartitionTimeline(
            message_bytes=1024,
            pready_times=preadys,
            arrival_times=[p + d for p, d in zip(preadys, durations)],
            join_time=join,
            pt2pt_time=pt2pt,
        ),
        preadys=st.lists(st.floats(min_value=0, max_value=10),
                         min_size=1, max_size=32),
        durations=st.lists(st.floats(min_value=1e-9, max_value=10),
                           min_size=32, max_size=32),
        join=st.floats(min_value=0, max_value=30),
        pt2pt=st.floats(min_value=1e-9, max_value=10),
    )

    @given(timelines)
    @settings(max_examples=200)
    def test_metric_invariants(self, tl):
        m = PtpMetrics.from_timeline(tl)
        assert m.overhead >= 0
        assert m.perceived_bandwidth > 0
        assert 0.0 <= m.early_bird_fraction <= 1.0
        assert m.application_availability <= 1.0
        # t_before + t_after partition the window around the join.
        assert tl.t_before_join <= tl.t_part + 1e-12
        assert tl.t_after_join >= 0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False),
                    min_size=1, max_size=200),
           st.floats(min_value=0.0, max_value=0.49))
    @settings(max_examples=100)
    def test_pruned_mean_within_range(self, values, trim):
        mean = pruned_mean(values, trim)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False),
                    min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_trim_is_subset_and_sorted(self, values):
        trimmed = trim_outliers(values, 0.05)
        assert len(trimmed) >= 1
        assert list(trimmed) == sorted(trimmed)


class TestProxyProperties:
    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=200)
    def test_process_grid_factorizes(self, n):
        px, py = process_grid(n)
        assert px * py == n
        assert px <= py

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1.0, max_value=1000.0))
    @settings(max_examples=200)
    def test_projection_bounds(self, fraction, speedup):
        s = project_speedup(fraction, speedup)
        assert 1.0 <= s <= speedup + 1e-9


class TestBarrierProperties:
    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_barrier_rounds_never_interleave(self, parties, rounds, seed):
        sim = Simulator()
        bar = SimBarrier(sim, parties, cost_per_party=0.0)
        rng = Generator(seed)
        # Row by row: the draws numpy's uniform(size=(parties, rounds))
        # makes, in the same order.
        delays = [rng.uniform(0.1, 1.0, size=rounds) for _ in range(parties)]
        leave_times = {r: [] for r in range(rounds)}

        def member(tid):
            for r in range(rounds):
                yield sim.timeout(delays[tid][r])
                yield from bar.wait()
                leave_times[r].append(sim.now)

        for tid in range(parties):
            sim.process(member(tid))
        sim.run()
        previous = -1.0
        for r in range(rounds):
            assert len(set(leave_times[r])) == 1
            assert leave_times[r][0] > previous
            previous = leave_times[r][0]
