"""MPI 4.0 Partitioned point-to-point communication.

Implements the partitioned API the paper benchmarks (``MPI_Psend_init``,
``MPI_Precv_init``, ``MPI_Start``, ``MPI_Pready``, ``MPI_Parrived``,
``MPI_Wait``) over the simulated runtime, as MPIPCL, the layered
implementation the paper evaluates, does.

Access is normally through :class:`repro.mpi.comm.Communicator`
(``comm.psend_init`` / ``comm.precv_init``); this package holds the request
state machines.
"""

from .requests import (
    PartitionedRecvRequest,
    PartitionedSendRequest,
    partition_sizes,
)

__all__ = [
    "PartitionedRecvRequest",
    "PartitionedSendRequest",
    "partition_sizes",
]
