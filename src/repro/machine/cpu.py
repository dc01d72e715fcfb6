"""CPU compute-cost model.

Converts a nominal per-thread compute amount (the benchmark's ``comp``
parameter, e.g. 10 ms) into the wall-clock time the thread actually spends,
accounting for:

* **oversubscription** — ``k`` threads time-sharing one core each take
  ``k``× longer, plus a context-switch charge per quantum, which produces
  the throughput drop the paper reports for 64 threads on 40 cores (§4.7);
* **injected noise** — an additive delay drawn from one of the §3.3 noise
  models (applied by the caller; this module only provides the scaling).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .topology import MachineSpec

__all__ = ["scaled_compute_time"]

#: Scheduler quantum used to count context switches while oversubscribed.
_QUANTUM = 0.004  # 4 ms, a typical CFS slice under load


def scaled_compute_time(compute_seconds: float, share: int,
                        spec: MachineSpec) -> float:
    """Wall time for ``compute_seconds`` of work on a core shared ``share`` ways.

    ``share == 1`` returns the input unchanged.  Sharing multiplies runtime
    and adds one context-switch cost per expired quantum, modelling the
    round-robin interleaving of oversubscribed OpenMP threads.
    """
    if compute_seconds < 0:
        raise ConfigurationError(
            f"negative compute time: {compute_seconds}")
    if share < 1:
        raise ConfigurationError(f"core share must be >= 1: {share}")
    if share == 1:
        return compute_seconds
    wall = compute_seconds * share
    switches = int(wall / _QUANTUM)
    return wall + switches * spec.context_switch

