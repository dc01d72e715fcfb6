"""Compute-node model: topology, thread binding, caches, CPU and NUMA costs.

This package is the simulated stand-in for the paper's Niagara nodes
(2 sockets x 20 Skylake cores, one NUMA domain per socket).  It answers the
questions the timing model asks:

* where does thread ``i`` run? (:func:`bind_threads`)
* how long does its compute take there? (:func:`scaled_compute_time`)
* what does touching a buffer cost, hot vs cold? (:class:`CacheModel`)
* what penalty applies for injecting from the far socket?
  (:meth:`MachineSpec.injection_penalty`)
"""

from .binding import ThreadBinding, bind_threads
from .cache import CacheModel, CacheStats
from .cpu import scaled_compute_time
from .topology import NIAGARA_NODE, MachineSpec, validate_spec

__all__ = [
    "ThreadBinding",
    "bind_threads",
    "CacheModel",
    "CacheStats",
    "scaled_compute_time",
    "NIAGARA_NODE",
    "MachineSpec",
    "validate_spec",
]
