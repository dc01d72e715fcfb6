"""Network parameter model (LogGP-style) and calibrated presets.

All first-order effects the paper analyses live in these parameters:

* per-message costs (``send_overhead``, ``recv_overhead``, ``injection_gap``)
  make small messages latency-bound, so splitting a message into ``n``
  partitions costs ~``n``× for tiny sizes (Fig. 4);
* ``bandwidth`` with per-packet ``header_bytes`` bounds large transfers, so
  splitting is nearly free for big messages (overhead → 1);
* the eager/rendezvous ``eager_threshold`` adds a handshake to large sends;
* ``match_cost`` models the per-element message-queue search that partitioned
  communication avoids by matching once at init time.

The :data:`NIAGARA_EDR` preset is calibrated against the published
characteristics of EDR InfiniBand (100 Gb/s, ~1 µs) on a single Dragonfly+
wing (one switch between any two endpoints), per the paper's §4.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import ConfigurationError

__all__ = ["NetworkParams", "NIAGARA_EDR", "validate_params"]


@dataclass(frozen=True)
class NetworkParams:
    """Static description of one network path type.

    Attributes
    ----------
    latency:
        One-way end-to-end base latency in seconds (NIC-to-NIC through the
        minimal route), excluding per-hop switch latency.
    switch_hop_latency:
        Added per switch traversed.
    bandwidth:
        Link bandwidth in bytes/second.
    mtu:
        Maximum payload per packet; each packet adds ``header_bytes`` of
        protocol framing onto the wire.
    header_bytes:
        Per-packet framing overhead (headers + CRC).
    send_overhead / recv_overhead:
        CPU time a process spends injecting / draining one message (the
        LogGP ``o`` parameters).
    injection_gap:
        Minimum NIC-side spacing between consecutive message injections (the
        LogGP ``g``); serializes many small partition messages.
    eager_threshold:
        Messages at or below this size use the eager protocol (sender
        completes on injection); larger ones use rendezvous.
    rendezvous_overhead:
        Extra CPU+NIC cost of the RTS/CTS handshake, on top of the extra
        round trip paid in latency.
    match_cost:
        Receiver-side cost *per queue element searched* when matching an
        incoming message against the posted-receive queue (Dosanjh et al.'s
        matching-cost observations); partitioned traffic bypasses the search
        after init.
    min_message_bytes:
        Smallest unit accounted on the wire (control messages use this).
    """

    latency: float = 0.9e-6
    switch_hop_latency: float = 0.11e-6
    bandwidth: float = 11.0e9
    mtu: int = 4096
    header_bytes: int = 64
    send_overhead: float = 0.35e-6
    recv_overhead: float = 0.35e-6
    injection_gap: float = 0.20e-6
    eager_threshold: int = 16 * 1024
    rendezvous_overhead: float = 0.6e-6
    match_cost: float = 30e-9
    min_message_bytes: int = 16

    def __post_init__(self) -> None:
        # Fail at construction: an invalid override (bandwidth=0, mtu=0)
        # must not survive until wire_time divides by it mid-sweep.
        validate_params(self)

    def wire_time(self, nbytes: int) -> float:
        """Serialization time of ``nbytes`` on the link, incl. packet headers."""
        if nbytes < 0:
            raise ConfigurationError(f"negative message size: {nbytes}")
        payload = max(nbytes, self.min_message_bytes)
        packets = max(1, math.ceil(payload / self.mtu))
        return (payload + packets * self.header_bytes) / self.bandwidth

    def path_latency(self) -> float:
        """One-way latency across the wing's single switch."""
        return self.latency + self.switch_hop_latency

    def is_eager(self, nbytes: int) -> bool:
        """True when a message of ``nbytes`` uses the eager protocol."""
        return nbytes <= self.eager_threshold

    def regime(self, nbytes: int) -> str:
        """Protocol regime of an ``nbytes`` message: eager or rendezvous."""
        return "eager" if self.is_eager(nbytes) else "rendezvous"

    def with_overrides(self, **kwargs) -> "NetworkParams":
        """Copy with fields replaced — used by protocol/lock ablations.

        ``replace`` re-runs ``__post_init__``, so an invalid override
        raises :class:`~repro.errors.ConfigurationError` immediately.
        """
        return replace(self, **kwargs)


def validate_params(params: NetworkParams) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` on nonsense values."""
    if params.latency < 0 or params.switch_hop_latency < 0:
        raise ConfigurationError("latencies must be non-negative")
    if params.bandwidth <= 0:
        raise ConfigurationError("bandwidth must be positive")
    if params.mtu < 1:
        raise ConfigurationError("mtu must be >= 1 byte")
    if params.header_bytes < 0:
        raise ConfigurationError("header_bytes must be non-negative")
    if min(params.send_overhead, params.recv_overhead,
           params.injection_gap, params.rendezvous_overhead,
           params.match_cost) < 0:
        raise ConfigurationError("overheads must be non-negative")
    if params.eager_threshold < 0:
        raise ConfigurationError("eager_threshold must be non-negative")
    if params.min_message_bytes < 1:
        raise ConfigurationError("min_message_bytes must be >= 1")


#: EDR InfiniBand on one Dragonfly+ wing (paper §4.1): 100 Gb/s class link,
#: ~1 µs end-to-end, a single switch between any two endpoints.
NIAGARA_EDR = NetworkParams()

