"""Compute-node topology model.

Describes a node the way the paper's testbed (SciNet Niagara) is described:
sockets holding cores, one NUMA domain per socket, a NIC attached to one
socket.  The spec is a frozen dataclass so machine descriptions can be used
as dictionary keys and shared between simulations safely.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigurationError

__all__ = ["MachineSpec", "NIAGARA_NODE", "validate_spec"]


@dataclass(frozen=True)
class MachineSpec:
    """Static description of one compute node.

    Attributes
    ----------
    sockets_per_node:
        CPU sockets (= NUMA domains on Niagara).
    cores_per_socket:
        Physical cores per socket.
    nic_socket:
        Socket the network adapter is attached to.  Threads on other sockets
        pay :attr:`inter_socket_penalty` per MPI injection.
    inter_socket_penalty:
        Extra seconds for an MPI call whose issuing thread sits on a
        different socket than the NIC (remote doorbell + cache-line
        transfers).  This drives the paper's 32-partition "spillover" spike.
    context_switch:
        Cost of one context switch; used by the oversubscription model and
        mirrors the single-thread-delay noise rationale (Li et al. [21]).
    memory_bandwidth:
        Sustained per-core DRAM streaming bandwidth in bytes/second.
    cache_bandwidth:
        Per-core bandwidth for data resident in cache, bytes/second.
    llc_bytes:
        Capacity of the cache cleared by the cold-cache invalidation buffer
        (the paper uses an 8 MB read/write buffer, after SMB).
    """

    sockets_per_node: int = 2
    cores_per_socket: int = 20
    nic_socket: int = 0
    inter_socket_penalty: float = 2.5e-6
    context_switch: float = 5.0e-6
    memory_bandwidth: float = 12.0e9
    cache_bandwidth: float = 80.0e9
    llc_bytes: int = 8 * 1024 * 1024

    @property
    def cores_per_node(self) -> int:
        """Total physical cores on the node."""
        return self.sockets_per_node * self.cores_per_socket

    def socket_of(self, core: int) -> int:
        """Socket index owning ``core`` (cores are numbered socket-major)."""
        if core < 0:
            raise ConfigurationError(f"negative core id: {core}")
        return (core // self.cores_per_socket) % self.sockets_per_node

    def is_remote_to_nic(self, core: int) -> bool:
        """True if ``core`` is on a different socket than the NIC."""
        return self.socket_of(core) != self.nic_socket

    def injection_penalty(self, core: int) -> float:
        """Fixed extra cost for an MPI injection from ``core``.

        Zero on the NIC's socket; :attr:`inter_socket_penalty` otherwise.
        This is the knob behind the paper's 32-partition overhead spike
        (§4.2) and the spillover ablation.
        """
        if self.is_remote_to_nic(core):
            return self.inter_socket_penalty
        return 0.0

    def with_overrides(self, **kwargs) -> "MachineSpec":
        """Return a copy with the given fields replaced (for ablations)."""
        return replace(self, **kwargs)


def validate_spec(spec: MachineSpec) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` on nonsense specs."""
    if spec.sockets_per_node < 1:
        raise ConfigurationError("sockets_per_node must be >= 1")
    if spec.cores_per_socket < 1:
        raise ConfigurationError("cores_per_socket must be >= 1")
    if not (0 <= spec.nic_socket < spec.sockets_per_node):
        raise ConfigurationError(
            f"nic_socket {spec.nic_socket} out of range "
            f"[0, {spec.sockets_per_node})")
    if spec.memory_bandwidth <= 0 or spec.cache_bandwidth <= 0:
        raise ConfigurationError("bandwidths must be positive")
    if spec.cache_bandwidth < spec.memory_bandwidth:
        raise ConfigurationError(
            "cache_bandwidth must be >= memory_bandwidth")
    if spec.inter_socket_penalty < 0 or spec.context_switch < 0:
        raise ConfigurationError("time costs must be non-negative")
    if spec.llc_bytes <= 0:
        raise ConfigurationError("llc_bytes must be positive")


#: The paper's testbed node: 2 sockets x 20 Intel Skylake cores @ 2.4 GHz.
NIAGARA_NODE = MachineSpec()
