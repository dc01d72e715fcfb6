"""Thread-to-core binding policies.

The paper assigns one partition to one thread and observes a large overhead
spike when the thread count exceeds the cores of one socket ("spillover" to
the second socket, §4.2) and a distinct regime when threads exceed the whole
node (oversubscription, §4.7).  This module computes the core each thread
lands on under a policy, and exposes the two derived facts the timing model
needs: which threads are remote to the NIC, and how many threads share each
core.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from .topology import MachineSpec

__all__ = ["BindPolicy", "ThreadBinding", "bind_threads"]


class BindPolicy(enum.Enum):
    """How consecutive thread ids map to cores.

    COMPACT
        Fill socket 0's cores first, then socket 1, then wrap around
        (oversubscription).  Matches ``OMP_PROC_BIND=close`` and is what the
        paper's experiments imply (spillover starts past 20 threads).
    SCATTER
        Round-robin across sockets (``OMP_PROC_BIND=spread``).  Used by the
        spillover ablation to show the spike is a binding artifact.
    SINGLE_SOCKET
        Clamp all threads onto the NIC's socket, wrapping early.  This trades
        spillover for oversubscription; used in ablations.
    """

    COMPACT = "compact"
    SCATTER = "scatter"
    SINGLE_SOCKET = "single-socket"


@dataclass(frozen=True)
class ThreadBinding:
    """The outcome of binding ``nthreads`` threads onto a node.

    Attributes
    ----------
    spec:
        The machine the binding was computed for.
    cores:
        ``cores[i]`` is the physical core that thread ``i`` runs on.
    """

    spec: MachineSpec
    cores: Tuple[int, ...]
    #: ``shares[i]`` is how many threads time-share thread ``i``'s core,
    #: counted once at construction.
    shares: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        occupancy = self.occupancy()
        object.__setattr__(self, "shares",
                           tuple(occupancy[c] for c in self.cores))

    @property
    def nthreads(self) -> int:
        """Number of bound threads."""
        return len(self.cores)

    def core_of(self, thread: int) -> int:
        """Physical core of ``thread``."""
        return self.cores[thread]

    def socket_of(self, thread: int) -> int:
        """Socket of ``thread``."""
        return self.spec.socket_of(self.cores[thread])

    def is_remote_to_nic(self, thread: int) -> bool:
        """True when the thread sits on a socket without the NIC."""
        return self.spec.is_remote_to_nic(self.cores[thread])

    def spillover_threads(self) -> List[int]:
        """Thread ids bound to a socket other than the NIC's."""
        return [t for t in range(self.nthreads) if self.is_remote_to_nic(t)]

    def occupancy(self) -> Dict[int, int]:
        """Map core -> number of threads bound to it."""
        occ: Dict[int, int] = {}
        for c in self.cores:
            occ[c] = occ.get(c, 0) + 1
        return occ

    def oversubscription_factor(self, thread: int) -> int:
        """How many threads time-share this thread's core (>= 1)."""
        return self.shares[thread]

    @property
    def oversubscribed(self) -> bool:
        """True if any core runs more than one thread."""
        return self.nthreads > 0 and max(self.occupancy().values()) > 1


def bind_threads(nthreads: int, spec: MachineSpec,
                 policy: BindPolicy = BindPolicy.COMPACT) -> ThreadBinding:
    """Compute the core for each of ``nthreads`` threads under ``policy``.

    Threads beyond the core count wrap around (oversubscription), matching
    the paper's 64-thread Halo3D configuration on a 40-core node.
    """
    if nthreads < 1:
        raise ConfigurationError(f"nthreads must be >= 1, got {nthreads}")
    total = spec.cores_per_node
    cores: List[int] = []
    if policy is BindPolicy.COMPACT:
        # Start on the NIC socket so small teams avoid spillover entirely.
        start = spec.nic_socket * spec.cores_per_socket
        order = [(start + i) % total for i in range(total)]
        for t in range(nthreads):
            cores.append(order[t % total])
    elif policy is BindPolicy.SCATTER:
        per = spec.cores_per_socket
        for t in range(nthreads):
            slot = t % total
            socket = slot % spec.sockets_per_node
            idx = slot // spec.sockets_per_node
            cores.append(socket * per + idx)
    elif policy is BindPolicy.SINGLE_SOCKET:
        per = spec.cores_per_socket
        base = spec.nic_socket * per
        for t in range(nthreads):
            cores.append(base + (t % per))
    else:  # pragma: no cover - exhaustive over enum
        raise ConfigurationError(f"unknown policy {policy!r}")
    return ThreadBinding(spec=spec, cores=tuple(cores))
