"""Unit tests for the machine model: topology, binding, cache, CPU, NUMA."""

import pytest

from repro.errors import ConfigurationError
from repro.machine import (CacheModel, NIAGARA_NODE, bind_threads,
                           scaled_compute_time, validate_spec)


class TestTopology:
    def test_niagara_dimensions(self):
        assert NIAGARA_NODE.sockets_per_node == 2
        assert NIAGARA_NODE.cores_per_socket == 20
        assert NIAGARA_NODE.cores_per_node == 40

    def test_socket_of(self):
        assert NIAGARA_NODE.socket_of(0) == 0
        assert NIAGARA_NODE.socket_of(19) == 0
        assert NIAGARA_NODE.socket_of(20) == 1
        assert NIAGARA_NODE.socket_of(39) == 1

    def test_negative_core_rejected(self):
        with pytest.raises(ConfigurationError):
            NIAGARA_NODE.socket_of(-1)

    def test_remote_to_nic(self):
        assert not NIAGARA_NODE.is_remote_to_nic(0)
        assert NIAGARA_NODE.is_remote_to_nic(25)

    def test_validate_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            validate_spec(NIAGARA_NODE.with_overrides(sockets_per_node=0))
        with pytest.raises(ConfigurationError):
            validate_spec(NIAGARA_NODE.with_overrides(nic_socket=5))
        with pytest.raises(ConfigurationError):
            validate_spec(NIAGARA_NODE.with_overrides(
                cache_bandwidth=1.0, memory_bandwidth=2.0))
        with pytest.raises(ConfigurationError):
            validate_spec(NIAGARA_NODE.with_overrides(
                inter_socket_penalty=-1.0))

    def test_with_overrides_is_copy(self):
        alt = NIAGARA_NODE.with_overrides(cores_per_socket=8)
        assert alt.cores_per_socket == 8
        assert NIAGARA_NODE.cores_per_socket == 20


class TestBinding:
    def test_compact_fills_nic_socket_first(self):
        b = bind_threads(20, NIAGARA_NODE)
        assert all(not b.is_remote_to_nic(t) for t in range(20))
        assert b.spillover_threads() == []

    def test_compact_spillover_past_one_socket(self):
        b = bind_threads(32, NIAGARA_NODE)
        assert b.spillover_threads() == list(range(20, 32))
        assert not b.oversubscribed

    def test_compact_oversubscription_wraps(self):
        b = bind_threads(64, NIAGARA_NODE)
        assert b.oversubscribed
        occ = b.occupancy()
        assert max(occ.values()) == 2
        assert b.oversubscription_factor(0) == 2  # cores 0..23 doubled

    def test_zero_threads_rejected(self):
        with pytest.raises(ConfigurationError):
            bind_threads(0, NIAGARA_NODE)

    def test_nthreads_property(self):
        assert bind_threads(7, NIAGARA_NODE).nthreads == 7


class TestCache:
    def test_miss_then_hit(self):
        cache = CacheModel(NIAGARA_NODE)
        miss = cache.access_time("buf", 1 << 20)
        hit = cache.access_time("buf", 1 << 20)
        assert miss > hit > 0
        assert miss == pytest.approx((1 << 20) / NIAGARA_NODE.memory_bandwidth)
        assert hit == pytest.approx((1 << 20) / NIAGARA_NODE.cache_bandwidth)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_zero_bytes_is_free(self):
        cache = CacheModel(NIAGARA_NODE)
        assert cache.access_time("buf", 0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheModel(NIAGARA_NODE).access_time("buf", -1)

    def test_invalidate_flushes_and_costs(self):
        cache = CacheModel(NIAGARA_NODE)
        cache.access_time("buf", 4096)
        cost = cache.invalidate()
        assert cost == pytest.approx(
            2 * NIAGARA_NODE.llc_bytes / NIAGARA_NODE.memory_bandwidth)
        assert not cache.is_resident("buf")
        assert cache.stats.invalidations == 1
        # next access misses again
        cache.access_time("buf", 4096)
        assert cache.stats.misses == 2

    def test_touch_installs_without_cost(self):
        cache = CacheModel(NIAGARA_NODE)
        cache.touch("buf", 4096)
        assert cache.is_resident("buf")
        assert cache.stats.misses == 0

    def test_capacity_eviction(self):
        cache = CacheModel(NIAGARA_NODE)
        half = NIAGARA_NODE.llc_bytes // 2 + 1
        cache.touch("a", half)
        cache.touch("b", half)  # evicts a
        assert not cache.is_resident("a")
        assert cache.is_resident("b")
        assert cache.resident_bytes <= NIAGARA_NODE.llc_bytes

    def test_oversized_buffer_clamped_to_capacity(self):
        cache = CacheModel(NIAGARA_NODE)
        cache.touch("huge", NIAGARA_NODE.llc_bytes * 4)
        assert cache.resident_bytes == NIAGARA_NODE.llc_bytes

    def test_hit_ratio(self):
        cache = CacheModel(NIAGARA_NODE)
        assert cache.stats.hit_ratio == 0.0
        cache.access_time("x", 64)
        cache.access_time("x", 64)
        assert cache.stats.hit_ratio == pytest.approx(0.5)


class TestComputeScaling:
    def test_unshared_core_is_identity(self):
        assert scaled_compute_time(0.01, 1, NIAGARA_NODE) == 0.01

    def test_sharing_multiplies_and_adds_switches(self):
        wall = scaled_compute_time(0.01, 2, NIAGARA_NODE)
        assert wall > 0.02  # 2x plus context switches

    def test_negative_compute_rejected(self):
        with pytest.raises(ConfigurationError):
            scaled_compute_time(-1.0, 1, NIAGARA_NODE)

    def test_zero_share_rejected(self):
        with pytest.raises(ConfigurationError):
            scaled_compute_time(1.0, 0, NIAGARA_NODE)


class TestNUMA:
    def test_injection_penalty_only_off_nic_socket(self):
        assert NIAGARA_NODE.injection_penalty(0) == 0.0
        assert NIAGARA_NODE.injection_penalty(25) == \
            NIAGARA_NODE.inter_socket_penalty
