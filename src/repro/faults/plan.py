"""Deterministic fault plans for the simulated cluster.

A :class:`FaultPlan` describes *what goes wrong* during a trial: eager
packets dropped with a fixed probability, windows in simulated time where
a link's ``bandwidth``/``latency`` degrade, periodic NIC injection
stalls, per-rank compute slowdown, and a fail-stop of one rank at time T.
The plan itself is pure configuration — every random decision it implies
is drawn from the cluster's existing :class:`~repro.sim.rng.RandomStreams`
(SHA-256 of ``"{seed}\\x1f{stream-name}"``), and the sweep engine already
derives one seed per cell, so a faulty sweep is exactly as bit-reproducible
as a clean one: same seed + same plan ⇒ same drops, same retransmits,
same ``event_digest``.

:class:`RetryPolicy` is the matching survival story: every tracked frame
is retransmitted after an ACK timeout with capped exponential backoff
until it is acknowledged or ``max_retries`` is exhausted (see
``repro.faults.transport``).  :class:`FaultOutcome` is the structured
record a trial leaves behind instead of crashing the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["DegradeWindow", "FailStop", "RetryPolicy", "FaultPlan",
           "FaultOutcome", "parse_fault_spec"]


@dataclass(frozen=True)
class DegradeWindow:
    """One interval of simulated time where a link runs degraded.

    While ``start <= now < end`` every transmission's wire time is divided
    by ``bandwidth_scale`` (0.5 = half the bandwidth, twice the wire time)
    and its propagation latency multiplied by ``latency_scale``.
    """

    start: float
    end: float
    bandwidth_scale: float = 1.0
    latency_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError(
                f"degrade window needs 0 <= start < end: "
                f"[{self.start}, {self.end})")
        if not 0 < self.bandwidth_scale <= 1.0:
            raise ConfigurationError(
                f"bandwidth_scale must be in (0, 1]: {self.bandwidth_scale}")
        if self.latency_scale < 1.0:
            raise ConfigurationError(
                f"latency_scale must be >= 1: {self.latency_scale}")

    def covers(self, now: float) -> bool:
        """Whether simulated time ``now`` falls inside this window."""
        return self.start <= now < self.end


@dataclass(frozen=True)
class FailStop:
    """Rank ``rank`` stops at simulated time ``time``: its NIC injects
    nothing afterwards and frames routed to it are black-holed."""

    rank: int
    time: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"fail-stop rank must be >= 0: "
                                     f"{self.rank}")
        if self.time < 0:
            raise ConfigurationError(f"fail-stop time must be >= 0: "
                                     f"{self.time}")


@dataclass(frozen=True)
class RetryPolicy:
    """ACK-timeout retransmission with capped exponential backoff.

    A tracked frame is retransmitted when no ACK arrives within the
    current timeout; each retry multiplies the timeout by
    ``backoff_factor`` up to ``max_backoff``.  After ``max_retries``
    unacknowledged attempts the frame is abandoned (a ``retry.abandoned``
    event — the trial then usually ends in a :class:`FaultOutcome` with
    ``delivered=False``).
    """

    ack_timeout: float = 10e-6
    backoff_factor: float = 2.0
    max_backoff: float = 1e-3
    max_retries: int = 10

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0:
            raise ConfigurationError(
                f"ack_timeout must be positive: {self.ack_timeout}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1: {self.backoff_factor}")
        if self.max_backoff < self.ack_timeout:
            raise ConfigurationError(
                f"max_backoff ({self.max_backoff}) must be >= ack_timeout "
                f"({self.ack_timeout})")
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0: {self.max_retries}")

    def timeout_after(self, attempts: int) -> float:
        """The ACK timeout in effect after ``attempts`` retransmissions."""
        return min(self.ack_timeout * self.backoff_factor ** attempts,
                   self.max_backoff)


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong during one trial, as configuration.

    Attributes
    ----------
    drop_probability:
        Per-transmission probability that the fabric loses the frame
        after injection (sender-side NIC work is still paid).  Any value
        > 0 switches the cluster into lossy-transport mode: frames carry
        sequence numbers, receivers ACK and de-duplicate, senders
        retransmit per ``retry``.
    degrade_windows:
        Intervals where links run at reduced bandwidth / raised latency.
    stall_period / stall_duration:
        Every ``stall_period`` seconds of simulated time each NIC stalls
        for ``stall_duration`` seconds before injecting (deterministic,
        phase-aligned to t=0).
    rank_slowdown:
        ``((rank, factor), ...)`` — compute on ``rank`` takes
        ``factor``× the nominal wall time.
    fail_stop:
        Optional fail-stop of one rank at a fixed time.
    deadline:
        Simulated-time budget for one trial; a trial still running at the
        deadline is abandoned and recorded as a :class:`FaultOutcome`.
    retry:
        The retransmission policy used in lossy mode.
    """

    drop_probability: float = 0.0
    degrade_windows: Tuple[DegradeWindow, ...] = ()
    stall_period: float = 0.0
    stall_duration: float = 0.0
    rank_slowdown: Tuple[Tuple[int, float], ...] = ()
    fail_stop: Optional[FailStop] = None
    deadline: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigurationError(
                f"drop_probability must be in [0, 1): {self.drop_probability}")
        if self.stall_period < 0 or self.stall_duration < 0:
            raise ConfigurationError("stall period/duration must be >= 0")
        if self.stall_duration > 0 and self.stall_period <= 0:
            raise ConfigurationError(
                "stall_duration needs a positive stall_period")
        if self.stall_period > 0 and self.stall_duration >= self.stall_period:
            raise ConfigurationError(
                f"stall_duration ({self.stall_duration}) must be shorter "
                f"than stall_period ({self.stall_period})")
        seen = set()
        for entry in self.rank_slowdown:
            rank, factor = entry
            if rank < 0:
                raise ConfigurationError(
                    f"slowdown rank must be >= 0: {rank}")
            if factor < 1.0:
                raise ConfigurationError(
                    f"slowdown factor must be >= 1: {factor}")
            if rank in seen:
                raise ConfigurationError(
                    f"duplicate slowdown entry for rank {rank}")
            seen.add(rank)
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(
                f"deadline must be positive: {self.deadline}")

    # -- queries the runtime makes per transmission ---------------------

    @property
    def lossy(self) -> bool:
        """True when the plan requires the reliable (ACK/retry) transport."""
        return self.drop_probability > 0.0

    @property
    def active(self) -> bool:
        """True when the plan perturbs anything at all."""
        return (self.lossy or bool(self.degrade_windows)
                or self.stall_duration > 0 or bool(self.rank_slowdown)
                or self.fail_stop is not None or self.deadline is not None)

    def degrade_at(self, now: float) -> Tuple[float, float]:
        """``(bandwidth_scale, latency_scale)`` in effect at ``now``."""
        bw, lat = 1.0, 1.0
        for win in self.degrade_windows:
            if win.covers(now):
                bw *= win.bandwidth_scale
                lat *= win.latency_scale
        return bw, lat

    def stall_delay(self, now: float) -> float:
        """Seconds the NIC must stall before injecting at ``now``."""
        if self.stall_duration <= 0:
            return 0.0
        phase = now % self.stall_period
        return self.stall_duration - phase if phase < self.stall_duration \
            else 0.0

    def slowdown_for(self, rank: int) -> float:
        """Compute-time multiplier for ``rank`` (1.0 = unaffected)."""
        for entry_rank, factor in self.rank_slowdown:
            if entry_rank == rank:
                return factor
        return 1.0

    def describe(self) -> str:
        """Compact single-line summary for labels and reports."""
        parts = []
        if self.drop_probability:
            parts.append(f"drop={self.drop_probability:g}")
        for win in self.degrade_windows:
            parts.append(f"degrade=[{win.start:g},{win.end:g})"
                         f"bw×{win.bandwidth_scale:g}"
                         f"/lat×{win.latency_scale:g}")
        if self.stall_duration:
            parts.append(f"stall={self.stall_duration:g}/{self.stall_period:g}")
        for rank, factor in self.rank_slowdown:
            parts.append(f"slow=r{rank}×{factor:g}")
        if self.fail_stop is not None:
            parts.append(f"failstop=r{self.fail_stop.rank}"
                         f"@{self.fail_stop.time:g}")
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline:g}")
        return ",".join(parts) if parts else "clean"


@dataclass(frozen=True)
class FaultOutcome:
    """What the fault machinery observed during one trial.

    ``delivered`` is True when every benchmark iteration completed;
    abandoned trials (deadline exceeded, fail-stop, retries exhausted)
    carry ``delivered=False`` plus a human-readable ``reason`` — the
    sweep records the outcome instead of crashing.
    """

    delivered: bool
    drops: int = 0
    retransmits: int = 0
    duplicates: int = 0
    acks: int = 0
    abandoned: int = 0
    stalls: int = 0
    fail_stops: int = 0
    reason: str = ""

    def describe(self) -> str:
        """One-line outcome summary for reports and CLI output."""
        state = "delivered" if self.delivered else \
            f"ABANDONED ({self.reason})" if self.reason else "ABANDONED"
        return (f"{state}: {self.drops} drops, {self.retransmits} "
                f"retransmits, {self.duplicates} duplicates, "
                f"{self.abandoned} frames given up")

    def to_dict(self) -> dict:
        """JSON-ready field mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# CLI spec parsing
# ---------------------------------------------------------------------------

_SPEC_HELP = """\
comma-separated key=value tokens:
  drop=P                    per-transmission loss probability in [0, 1)
  degrade=S:E:BW[:LAT]      window [S, E) at BW×bandwidth, LAT×latency
                            (repeatable)
  stall=PERIOD/DURATION     every PERIOD s the NIC stalls DURATION s
  slow=RANK:FACTOR          rank's compute takes FACTOR× (repeatable)
  failstop=RANK@TIME        rank stops at simulated TIME
  deadline=T                abandon a trial still running at time T
  ack_timeout=T             initial ACK timeout (default 1e-05)
  backoff=F                 timeout multiplier per retry (default 2)
  max_backoff=T             timeout ceiling (default 0.001)
  retries=N                 retransmissions before giving up (default 10)
example: drop=0.05,stall=0.002/0.0001,deadline=5.0"""


def _float(token: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(
            f"--faults: {token!r} needs a number, got {text!r}")


def _int(token: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"--faults: {token!r} needs an integer, got {text!r}")


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse the CLI ``--faults`` grammar into a :class:`FaultPlan`.

    The grammar is :data:`parse_fault_spec.GRAMMAR`, also printed by
    ``python -m repro faults``.
    """
    windows = []
    slowdowns = []
    plan_kw: dict = {}
    retry_kw: dict = {}
    seen = set()
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise ConfigurationError(
            "--faults: empty spec; omit the flag for a clean run")
    for token in tokens:
        if "=" not in token:
            raise ConfigurationError(
                f"--faults: expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        key = key.strip()
        value = value.strip()
        # degrade and slow accumulate; every other key is single-shot.
        if key not in ("degrade", "slow"):
            if key in seen:
                raise ConfigurationError(
                    f"--faults: duplicate key {key!r}")
            seen.add(key)
        if key == "drop":
            plan_kw["drop_probability"] = _float(token, value)
        elif key == "degrade":
            parts = value.split(":")
            if len(parts) not in (3, 4):
                raise ConfigurationError(
                    f"--faults: degrade needs START:END:BW[:LAT], "
                    f"got {value!r}")
            windows.append(DegradeWindow(
                start=_float(token, parts[0]),
                end=_float(token, parts[1]),
                bandwidth_scale=_float(token, parts[2]),
                latency_scale=(_float(token, parts[3])
                               if len(parts) == 4 else 1.0)))
        elif key == "stall":
            period, sep, duration = value.partition("/")
            if not sep:
                raise ConfigurationError(
                    f"--faults: stall needs PERIOD/DURATION, got {value!r}")
            plan_kw["stall_period"] = _float(token, period)
            plan_kw["stall_duration"] = _float(token, duration)
        elif key == "slow":
            rank, sep, factor = value.partition(":")
            if not sep:
                raise ConfigurationError(
                    f"--faults: slow needs RANK:FACTOR, got {value!r}")
            slowdowns.append((_int(token, rank), _float(token, factor)))
        elif key == "failstop":
            rank, sep, when = value.partition("@")
            if not sep:
                raise ConfigurationError(
                    f"--faults: failstop needs RANK@TIME, got {value!r}")
            plan_kw["fail_stop"] = FailStop(rank=_int(token, rank),
                                            time=_float(token, when))
        elif key == "deadline":
            plan_kw["deadline"] = _float(token, value)
        elif key == "ack_timeout":
            retry_kw["ack_timeout"] = _float(token, value)
        elif key == "backoff":
            retry_kw["backoff_factor"] = _float(token, value)
        elif key == "max_backoff":
            retry_kw["max_backoff"] = _float(token, value)
        elif key == "retries":
            retry_kw["max_retries"] = _int(token, value)
        else:
            raise ConfigurationError(
                f"--faults: unknown key {key!r} in {token!r}")
    if windows:
        plan_kw["degrade_windows"] = tuple(windows)
    if slowdowns:
        plan_kw["rank_slowdown"] = tuple(slowdowns)
    if retry_kw:
        plan_kw["retry"] = RetryPolicy(**retry_kw)
    return FaultPlan(**plan_kw)


#: Re-exported so the CLI can print the grammar without re-stating it.
parse_fault_spec.GRAMMAR = _SPEC_HELP  # type: ignore[attr-defined]
