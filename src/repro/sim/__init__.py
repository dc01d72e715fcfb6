"""Deterministic discrete-event simulation kernel.

The kernel provides:

* :class:`Simulator` — the virtual-time event loop.
* :class:`Process` / :class:`Event` / :class:`Timeout` — coroutine plumbing.
* :class:`Resource` / :class:`Mutex` / :class:`Store` — contended objects.
* :class:`RandomStreams` — named, reproducible RNG streams.

Everything above the kernel (machine, network, MPI runtime) is expressed in
terms of these primitives, so the entire benchmark suite is deterministic
given a master seed.  Instrumentation lives one layer up, in
:mod:`repro.obs`.
"""

from .core import (
    AllOf,
    Event,
    Process,
    Simulator,
    Timeout,
)
from .resources import Mutex, MutexStats, Resource, Store
from .rng import RandomStreams

__all__ = [
    "AllOf",
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "Mutex",
    "MutexStats",
    "Resource",
    "Store",
    "RandomStreams",
]
