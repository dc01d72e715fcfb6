"""Network substrate: LogGP-style parameters and NICs.

The model is deliberately first-order — per-message overheads, per-packet
headers, a serializing injection engine, and a one-switch Dragonfly+ wing —
because those are exactly the mechanisms the paper's analysis appeals to
(latency-bound small messages, header cost of splitting, NIC serialization
of partition trains, eager vs rendezvous knees).  Every rank has a node of
its own, so every pair of ranks talks over the one inter-node path.
"""

from .model import NIAGARA_EDR, NetworkParams, validate_params
from .nic import NIC, NICStats, Transmission

__all__ = [
    "NIAGARA_EDR",
    "NetworkParams",
    "validate_params",
    "NIC",
    "NICStats",
    "Transmission",
]
