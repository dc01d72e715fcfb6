"""The dynamic half of :mod:`repro.analysis`: a validating runtime layer.

:func:`enable_checking` subscribes a :class:`Checker` — an ordinary
:class:`repro.obs.Sink` — to the cluster's instrumentation bus for every
``part.*`` event.  From then on the partitioned lifecycle events the
runtime already emits (see :mod:`repro.obs.kinds`) drive the checker's
per-partition happens-before tracking, every simulated resource
reports its holders and waiters (via ``Simulator.monitor``), and — at
:meth:`Checker.finalize` — the checker sweeps for leaked requests,
unmatched ``psend_init``/``precv_init`` halves, and wait-for cycles over
resources.

Verdicts are :class:`~repro.analysis.findings.Finding` objects, the same
currency the static linter uses; they also surface in the per-rank
:func:`repro.mpi.diagnostics.cluster_report`.

The checker *observes*: it never raises into the simulated program and
never schedules events, so enabling it cannot change a schedule.  Misuse
of the request state machine itself (a double ``pready``, an
out-of-range partition, ``wait`` before ``start``) is the runtime's job:
it raises ``RequestStateError``/``PartitionError``, which
:func:`run_checked` reports as the run's error.  The checker covers what
the runtime cannot see — buffer races, leaks, unmatched inits and
resource deadlocks.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..errors import ConfigurationError
from ..obs import EventRecord, Sink
from .deadlock import ResourceMonitor
from .findings import Finding, format_findings
from .races import PartitionTracker

__all__ = ["Checker", "CheckReport", "enable_checking", "run_checked",
           "check_file", "load_program"]


class Checker(Sink):
    """Dynamic-correctness observer for one cluster run.

    An ordinary :class:`repro.obs.Sink` subscribed to ``part.*`` by
    :func:`enable_checking`; :meth:`accept` folds each lifecycle event
    into the per-request shadow state.  Findings accumulate in
    :attr:`findings` in event order.  Individual rules can be switched
    off with ``disabled`` — used by the fixture tests to prove each rule
    is load-bearing.
    """

    #: The subscription this sink needs.
    PATTERNS = ("part.*",)

    def __init__(self, cluster, disabled: Iterable[str] = ()):
        self.cluster = cluster
        self.disabled = frozenset(disabled)
        self.findings: List[Finding] = []
        self.tracker = PartitionTracker()
        self.monitor = ResourceMonitor()
        self._finalized = False

    # -- sink protocol ---------------------------------------------------
    def accept(self, record: EventRecord) -> None:
        """Fold one ``part.*`` lifecycle event into the shadow state."""
        name = record.kind.name
        req = record.get("req")
        if name == "part.init":
            self.on_init(req, record.get("side") == "send")
        elif name == "part.start":
            self.on_start(req)
        elif name == "part.wait":
            self.on_wait(req)
        elif name == "part.pready":
            self.on_pready(req, record.get("partition"))
        elif name == "part.arrived":
            self.on_partition_arrived(req, record.get("partition"),
                                      record.time)
        elif name == "part.buffer_write":
            self.on_buffer_write(req, record.get("partition"))
        elif name == "part.buffer_read":
            self.on_buffer_read(req, record.get("partition"))
        # part.parrived / part.send_start / part.send_injected /
        # epoch-complete markers carry no state the race and leak rules
        # need.

    # -- reporting -------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True while no finding has been recorded."""
        return not self.findings

    def findings_for_rank(self, rank: int) -> List[Finding]:
        """Findings attributed to one rank (finalize-wide ones excluded)."""
        return [f for f in self.findings if f.rank == rank]

    def _report(self, rule: str, message: str,
                rank: Optional[int] = None) -> None:
        if rule in self.disabled:
            return
        self.findings.append(Finding(
            rule=rule, message=message, rank=rank,
            time=self.cluster.sim.now))

    # -- hooks from the partitioned runtime ------------------------------
    def on_init(self, req, is_send: bool) -> None:
        """``psend_init``/``precv_init`` registered a new request."""
        self.tracker.ensure(req, "send" if is_send else "recv")

    def on_start(self, req) -> None:
        """A request armed a new epoch."""
        self._state(req).start()

    def on_wait(self, req) -> None:
        """A request entered ``wait()``."""
        self._state(req).active = False

    def on_pready(self, req, partition: int) -> None:
        """Send side marked one partition ready."""
        self._state(req).ready.setdefault(partition, self.cluster.sim.now)

    def on_partition_arrived(self, req, partition: int, now: float) -> None:
        """The runtime delivered one partition into the receive buffer."""
        self._state(req).arrived[partition] = now

    def on_buffer_write(self, req, partition: int) -> None:
        """Application annotated a send-buffer write."""
        self._report_race("PART004", req, self._state(req).write_race(
            partition, self.cluster.sim.now))

    def on_buffer_read(self, req, partition: int) -> None:
        """Application annotated a receive-buffer read."""
        self._report_race("PART005", req, self._state(req).read_race(
            partition, self.cluster.sim.now))

    def _report_race(self, rule: str, req, message: Optional[str]) -> None:
        if message is not None:
            rank = req.proc.rank
            self._report(rule, f"rank {rank}: {message}", rank=rank)

    def _state(self, req):
        side = "send" if hasattr(req, "_ready") else "recv"
        return self.tracker.ensure(req, side)

    # -- finalize --------------------------------------------------------
    def finalize(self, aborted: bool = False) -> List[Finding]:
        """End-of-run sweep: leaks, unmatched inits, resource deadlocks.

        Idempotent — callable once per run; returns the full findings
        list for convenience.  With ``aborted=True`` (the program died of
        a runtime error mid-flight) the leak and unmatched-init sweeps are
        skipped — an aborted program never had the chance to wait or
        match, so those findings would be noise on top of the real one —
        while the deadlock cycle check still runs.
        """
        if self._finalized:
            return self.findings
        self._finalized = True
        if aborted:
            cycle = self.monitor.find_deadlock()
            if cycle is not None:
                self._report("RES001",
                             f"deadlock cycle over simulated resources: "
                             f"{cycle}")
            return self.findings
        for req, state in self.tracker.leaks():
            self._report(
                "FIN001",
                f"rank {req.proc.rank}: {state.describe()} (peer rank "
                f"{req.peer_rank}, tag {req.tag}) started epoch "
                f"{state.epoch} but never completed a wait() — leaked "
                f"request", rank=req.proc.rank)
        for key, entry in self.cluster._part_pending.items():
            src, dst, tag, comm = key
            for side, verb, peer_verb in (("send", "psend_init",
                                           "precv_init"),
                                          ("recv", "precv_init",
                                           "psend_init")):
                for req in entry[side]:
                    self._report(
                        "FIN002",
                        f"rank {req.proc.rank}: {verb} "
                        f"({src}->{dst}, tag {tag}, comm {comm}) was never "
                        f"matched by a peer {peer_verb}",
                        rank=req.proc.rank)
        cycle = self.monitor.find_deadlock()
        if cycle is not None:
            self._report("RES001",
                         f"deadlock cycle over simulated resources: "
                         f"{cycle}")
        return self.findings


@dataclass
class CheckReport:
    """Outcome of one checked run (see :func:`run_checked`).

    ``ok`` means the program completed without findings *and* without a
    runtime error; ``results`` carries the per-rank return values when the
    program finished.
    """

    findings: List[Finding] = field(default_factory=list)
    error: Optional[str] = None
    results: Optional[List[Any]] = None
    nranks: int = 0

    @property
    def ok(self) -> bool:
        """True when the run is clean: no findings, no runtime error."""
        return not self.findings and self.error is None

    def format(self) -> str:
        """Render a human-readable verdict block."""
        lines: List[str] = []
        if self.findings:
            lines.append(format_findings(self.findings))
        if self.error:
            lines.append(f"runtime error: {self.error}")
        per_rank = {r: 0 for r in range(self.nranks)}
        for finding in self.findings:
            if finding.rank is not None and finding.rank in per_rank:
                per_rank[finding.rank] += 1
        for rank in range(self.nranks):
            n = per_rank[rank]
            verdict = "ok" if n == 0 else f"{n} finding(s)"
            lines.append(f"rank {rank}: {verdict}")
        lines.append("verdict: " + ("CLEAN" if self.ok else "VIOLATIONS"))
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable form used by ``--format=json``."""
        return json.dumps({
            "ok": self.ok,
            "error": self.error,
            "count": len(self.findings),
            "findings": [f.to_dict() for f in self.findings],
        }, indent=2)


def enable_checking(cluster, disabled: Iterable[str] = ()) -> Checker:
    """Attach a dynamic :class:`Checker` to ``cluster``; returns it.

    Subscribes the checker to the cluster's instrumentation bus for
    ``part.*`` events and installs its resource monitor on the simulator.
    Call before :meth:`~repro.mpi.cluster.Cluster.run`; call
    :meth:`Checker.finalize` after the run (or use :func:`run_checked`,
    which does both).
    """
    checker = Checker(cluster, disabled=disabled)
    cluster.checker = checker
    cluster.obs.attach(checker, Checker.PATTERNS)
    cluster.sim.monitor = checker.monitor
    return checker


def run_checked(program: Callable, nranks: int = 2,
                disabled: Iterable[str] = (),
                **cluster_kwargs) -> CheckReport:
    """Run ``program(ctx)`` on a fresh checked cluster; returns the report.

    Errors raised by the simulated program — library errors
    (state-machine violations, deadlocks, …) and plain Python ones (a
    typo'd attribute) alike — are captured into ``report.error`` rather
    than propagated: they are the verdict on the program, and a
    validation tool should outlive the program it judges.  Cluster
    arguments the :class:`~repro.mpi.Cluster` does not take raise
    :class:`~repro.errors.ConfigurationError`.
    """
    from ..errors import DeadlockError
    from ..mpi import Cluster  # local import: analysis must stay leaf-like

    try:
        cluster = Cluster(nranks=nranks, **cluster_kwargs)
    except TypeError as exc:
        # An unknown keyword in the program's CLUSTER_KWARGS.
        raise ConfigurationError(
            f"invalid cluster arguments: {exc}") from None
    checker = enable_checking(cluster, disabled=disabled)
    error: Optional[str] = None
    aborted = False
    results: Optional[List[Any]] = None
    try:
        results = cluster.run(program)
    except DeadlockError as exc:
        # A hang is exactly what the wait-for-graph post-mortem is for.
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        aborted = True
    checker.finalize(aborted=aborted)
    # The verdict is in: unhook the checker and its monitor, which refer
    # back to the cluster and simulator, so the checked world frees
    # itself by reference counting.
    cluster.checker = cluster.sim.monitor = None
    cluster.obs.detach(checker)
    return CheckReport(findings=list(checker.findings), error=error,
                       results=results, nranks=nranks)


def load_program(path) -> Dict[str, Any]:
    """Load a checkable program module from ``path``.

    The file must define ``program(ctx)``; it may define ``NRANKS``
    (default 2) and ``CLUSTER_KWARGS`` (default empty) to shape the
    cluster.  Returns ``{"program": ..., "nranks": ..., "kwargs": ...,
    "namespace": ...}``; ``namespace`` is the module's dict, which its
    functions hold as their globals.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such program file: {path}")
    spec = importlib.util.spec_from_file_location(
        f"repro_checked_{path.stem}", path)
    if spec is None or spec.loader is None:
        raise ConfigurationError(f"cannot import program file: {path}")
    module = importlib.util.module_from_spec(spec)
    # Register so dataclasses/pickling inside the program can resolve it.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    program = getattr(module, "program", None)
    if not callable(program):
        raise ConfigurationError(
            f"{path} does not define a program(ctx) callable")
    return {
        "program": program,
        "nranks": int(getattr(module, "NRANKS", 2)),
        "kwargs": dict(getattr(module, "CLUSTER_KWARGS", {})),
        "namespace": module.__dict__,
    }


def check_file(path, disabled: Iterable[str] = (),
               nranks: Optional[int] = None) -> CheckReport:
    """Load ``path`` (see :func:`load_program`) and run it checked.

    ``nranks`` overrides the program's own ``NRANKS``.

    The loaded module is this call's alone, so once the verdict is in
    its namespace is cleared: the module's functions and its dict refer
    to each other, a cycle only the collector would free.  Per-rank
    results that call back into the module's globals stop working then.
    """
    loaded = load_program(path)
    try:
        if nranks is None:
            nranks = loaded["nranks"]
        return run_checked(loaded["program"], nranks=nranks,
                           disabled=disabled, **loaded["kwargs"])
    finally:
        loaded["namespace"].clear()
