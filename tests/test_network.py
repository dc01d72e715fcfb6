"""Unit tests for the network model: params, the one path, NIC serialization."""

import pytest

from repro.errors import ConfigurationError
from repro.mpi import Cluster
from repro.network import (NIAGARA_EDR, NIC, NetworkParams, Transmission,
                           validate_params)


class TestNetworkParams:
    def test_wire_time_includes_headers(self):
        p = NetworkParams(bandwidth=1e9, mtu=1000, header_bytes=100)
        # 2500 bytes -> 3 packets -> 300 header bytes on the wire
        assert p.wire_time(2500) == pytest.approx((2500 + 300) / 1e9)

    def test_wire_time_clamps_tiny_messages(self):
        p = NIAGARA_EDR
        assert p.wire_time(0) == p.wire_time(p.min_message_bytes)

    def test_wire_time_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            NIAGARA_EDR.wire_time(-1)

    def test_path_latency_adds_hops(self):
        # Any two nodes of the wing are one switch apart.
        p = NIAGARA_EDR
        assert p.path_latency() == p.latency + p.switch_hop_latency

    def test_eager_threshold(self):
        p = NIAGARA_EDR
        assert p.is_eager(p.eager_threshold)
        assert not p.is_eager(p.eager_threshold + 1)

    def test_validate_rejects_nonsense(self):
        with pytest.raises(ConfigurationError):
            validate_params(NIAGARA_EDR.with_overrides(bandwidth=0))
        with pytest.raises(ConfigurationError):
            validate_params(NIAGARA_EDR.with_overrides(mtu=0))
        with pytest.raises(ConfigurationError):
            validate_params(NIAGARA_EDR.with_overrides(latency=-1))

    def test_with_overrides(self):
        alt = NIAGARA_EDR.with_overrides(eager_threshold=0)
        assert not alt.is_eager(1)
        assert NIAGARA_EDR.is_eager(1)

    def test_invalid_params_rejected_at_construction(self):
        # Validation runs in __post_init__, so a bad override can never
        # produce a live (but nonsensical) params object.
        with pytest.raises(ConfigurationError):
            NIAGARA_EDR.with_overrides(bandwidth=0)
        with pytest.raises(ConfigurationError):
            NetworkParams(bandwidth=1e9, mtu=0)
        with pytest.raises(ConfigurationError):
            NetworkParams(bandwidth=1e9, latency=-1)


class TestFabric:
    def test_inter_node_path(self):
        # One rank per node, one switch between any two: every rank
        # reaches every peer over the inter-node path.
        cluster = Cluster(nranks=3)
        for proc in cluster.procs:
            assert proc.params is NIAGARA_EDR
            assert proc._latency == (NIAGARA_EDR.latency
                                     + NIAGARA_EDR.switch_hop_latency)


class TestNIC:
    def _tx(self, dst, nbytes, wire, latency, payload):
        return Transmission(dst_rank=dst, nbytes=nbytes, wire_time=wire,
                            latency=latency, payload=payload, gap=0.0)

    def test_single_delivery(self, sim):
        delivered = []
        nic = NIC(sim, 0, lambda dst, p: delivered.append((sim.now, dst, p)))
        nic.enqueue(self._tx(1, 100, wire=2.0, latency=1.0, payload="m"))
        sim.run()
        assert delivered == [(3.0, 1, "m")]
        assert nic.stats.messages == 1
        assert nic.stats.bytes == 100

    def test_serialization_of_back_to_back_messages(self, sim):
        delivered = []
        nic = NIC(sim, 0, lambda dst, p: delivered.append(sim.now))
        for _ in range(3):
            nic.enqueue(self._tx(1, 10, wire=1.0, latency=0.5, payload="x"))
        sim.run()
        # injections at 1, 2, 3; deliveries 0.5 later
        assert delivered == [1.5, 2.5, 3.5]

    def test_injection_gap_is_charged(self, sim):
        delivered = []
        nic = NIC(sim, 0, lambda dst, p: delivered.append(sim.now))
        tx = self._tx(1, 10, wire=1.0, latency=0.0, payload="x")
        tx.gap = 0.5
        nic.enqueue(tx)
        sim.run()
        assert delivered == [1.5]

    def test_injected_event_fires_before_delivery(self, sim):
        injected = []
        nic = NIC(sim, 0, lambda dst, p: None)
        tx = nic.enqueue(self._tx(1, 10, wire=1.0, latency=5.0, payload="x"))
        tx.injected.callbacks.append(lambda ev: injected.append(ev.value))
        sim.run()
        assert injected == [1.0]

    def test_busy_time_accounting(self, sim):
        nic = NIC(sim, 0, lambda dst, p: None)
        nic.enqueue(self._tx(1, 10, wire=2.0, latency=0.0, payload="x"))
        nic.enqueue(self._tx(1, 10, wire=3.0, latency=0.0, payload="y"))
        sim.run()
        assert nic.stats.busy_time == pytest.approx(5.0)
        assert nic.stats.max_queue >= 1
