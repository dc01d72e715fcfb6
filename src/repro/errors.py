"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures without masking programming errors.  Sub-hierarchies
mirror the package layout: simulation-kernel errors, MPI semantic errors, and
benchmark-configuration errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """An error inside the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still waiting.

    Raised by :meth:`repro.sim.Simulator.run` when ``until`` has not been
    reached, no events remain, and at least one live process exists.  This is
    the simulated analogue of an MPI deadlock (e.g. two blocking sends with
    no matching receives).
    """


class MPIError(ReproError):
    """Violation of MPI semantics by the simulated application."""


class TruncationError(MPIError):
    """A receive buffer was smaller than the matched incoming message."""


class RequestStateError(MPIError):
    """An operation was applied to a request in an illegal state.

    Examples: calling ``pready`` before ``start``, starting a partitioned
    request before the previous epoch's ``wait``, or double-completing a
    request.
    """


class PartitionError(MPIError):
    """Illegal partition index or partition-count mismatch."""


class ThreadingModeError(MPIError):
    """An MPI call violated the communicator's declared threading mode."""


class ConfigurationError(ReproError):
    """An invalid benchmark, machine, or network configuration value."""
