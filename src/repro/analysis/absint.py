"""Abstract domains and the fixpoint engine behind ``simcheck``.

Three pieces, all deliberately tiny and dependency-free:

:class:`Interval`
    Integer intervals with ±∞ bounds — the abstraction for partition
    indices and loop counters.  Supports the arithmetic the tracked
    expressions actually use (``+``, ``-``, constant ``*``, shifts of
    constants) plus ``join``/``widen`` for the fixpoint.

:class:`IndexSet`
    Finite unions of disjoint integer ranges — the abstraction for "which
    partitions has this epoch readied".  ``union`` is the *may* join,
    ``intersect`` the *must* join.  The representation is capped at
    :data:`MAX_RANGES` ranges (collapsing to the convex hull beyond
    that), which bounds every ascending chain.

:func:`fixpoint`
    A worklist solver over a :class:`~repro.analysis.cfg.CFG` for any
    join-semilattice state.  Widening is applied at loop heads once a
    block has been revisited :data:`WIDEN_AFTER` times, and a hard
    per-block visit cap guarantees termination even for a pathological
    client domain.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional, Tuple

from .cfg import CFG

__all__ = ["Interval", "IndexSet", "fixpoint", "MAX_RANGES", "WIDEN_AFTER"]

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Cap on the number of disjoint ranges an :class:`IndexSet` keeps before
#: collapsing to its convex hull.
MAX_RANGES = 16

#: Loop-head revisits before widening kicks in.
WIDEN_AFTER = 3

#: Hard safety valve: a block revisited this often stops propagating.
MAX_VISITS = 200


class Interval:
    """A closed integer interval ``[lo, hi]`` (bounds may be ±∞)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors -----------------------------------------------------
    @classmethod
    def const(cls, n: int) -> "Interval":
        return cls(n, n)

    @classmethod
    def top(cls) -> "Interval":
        return cls(NEG_INF, POS_INF)

    # -- predicates -------------------------------------------------------
    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi and isinstance(self.lo, int)

    @property
    def is_bounded(self) -> bool:
        return self.lo != NEG_INF and self.hi != POS_INF

    def contains(self, other: "Interval") -> bool:
        """True when ``other`` lies entirely inside this interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def disjoint(self, other: "Interval") -> bool:
        """True when the two intervals share no value."""
        return self.hi < other.lo or other.hi < self.lo

    # -- lattice ----------------------------------------------------------
    def join(self, other: "Interval") -> "Interval":
        """Least upper bound: the smallest interval holding both."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, other: "Interval") -> "Interval":
        """Standard interval widening: unstable bounds jump to ±∞."""
        lo = self.lo if other.lo >= self.lo else NEG_INF
        hi = self.hi if other.hi <= self.hi else POS_INF
        return Interval(lo, hi)

    # -- arithmetic -------------------------------------------------------
    def add(self, other: "Interval") -> "Interval":
        """Interval sum."""
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        """Interval difference."""
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def neg(self) -> "Interval":
        """Interval negation."""
        return Interval(-self.hi, -self.lo)

    def mul_const(self, n: int) -> "Interval":
        """Scale by the integer constant ``n``."""
        a, b = self.lo * n, self.hi * n
        return Interval(min(a, b), max(a, b))

    # -- plumbing ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (isinstance(other, Interval)
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        if self.is_singleton:
            return f"{{{self.lo}}}"
        return f"[{self.lo}, {self.hi}]"


class IndexSet:
    """An immutable union of disjoint, sorted integer ranges."""

    __slots__ = ("ranges",)

    def __init__(self, ranges: Tuple[Tuple[int, int], ...] = ()):
        self.ranges = ranges

    EMPTY: "IndexSet"

    @classmethod
    def of_range(cls, lo: int, hi: int) -> "IndexSet":
        """The set ``{lo, …, hi}`` (inclusive); empty when ``hi < lo``."""
        if hi < lo:
            return cls.EMPTY
        return cls(((lo, hi),))

    @classmethod
    def _normalize(cls, pairs) -> "IndexSet":
        merged = []
        for lo, hi in sorted(pairs):
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        if len(merged) > MAX_RANGES:
            merged = [(merged[0][0], merged[-1][1])]
        return cls(tuple(merged))

    # -- queries ----------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.ranges

    def contains_value(self, n: int) -> bool:
        """True when ``n`` is in the set."""
        return any(lo <= n <= hi for lo, hi in self.ranges)

    def covers(self, lo: int, hi: int) -> bool:
        """True when every value in ``[lo, hi]`` is in the set."""
        return any(a <= lo and hi <= b for a, b in self.ranges)

    def overlaps(self, lo: int, hi: int) -> bool:
        """True when some value in ``[lo, hi]`` is in the set."""
        return any(a <= hi and lo <= b for a, b in self.ranges)

    # -- operations -------------------------------------------------------
    def add_range(self, lo: int, hi: int) -> "IndexSet":
        """The set plus every value in ``[lo, hi]``."""
        if hi < lo:
            return self
        return self._normalize(list(self.ranges) + [(lo, hi)])

    def union(self, other: "IndexSet") -> "IndexSet":
        """Set union."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return self._normalize(list(self.ranges) + list(other.ranges))

    def intersect(self, other: "IndexSet") -> "IndexSet":
        """Set intersection."""
        out = []
        for a, b in self.ranges:
            for c, d in other.ranges:
                lo, hi = max(a, c), min(b, d)
                if lo <= hi:
                    out.append((lo, hi))
        return self._normalize(out)

    def subtract(self, other: "IndexSet") -> "IndexSet":
        """Set difference: values in this set but not in ``other``."""
        out = []
        for a, b in self.ranges:
            pieces = [(a, b)]
            for c, d in other.ranges:
                nxt = []
                for lo, hi in pieces:
                    if d < lo or hi < c:
                        nxt.append((lo, hi))
                        continue
                    if lo < c:
                        nxt.append((lo, c - 1))
                    if d < hi:
                        nxt.append((d + 1, hi))
                pieces = nxt
            out.extend(pieces)
        return self._normalize(out)

    # -- plumbing ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSet) and self.ranges == other.ranges

    def __hash__(self) -> int:
        return hash(self.ranges)

    def __repr__(self) -> str:
        if self.is_empty:
            return "{}"
        return "{" + ", ".join(
            f"{lo}" if lo == hi else f"{lo}..{hi}"
            for lo, hi in self.ranges) + "}"

    def describe(self) -> str:
        """Human form for messages: ``"0, 2..4"``."""
        return ", ".join(f"{lo}" if lo == hi else f"{lo}..{hi}"
                         for lo, hi in self.ranges)


IndexSet.EMPTY = IndexSet()


def fixpoint(cfg: CFG,
             entry_state,
             transfer: Callable,
             join: Callable,
             widen: Optional[Callable] = None) -> Dict[int, object]:
    """Worklist solver: least fixpoint of ``transfer`` over ``cfg``.

    ``transfer(block, state)`` returns the block's out-state;
    ``join(a, b)`` merges two in-states; ``widen(old, new)``, when given,
    replaces ``join`` at loop heads after :data:`WIDEN_AFTER` revisits.
    Returns the stable in-state per reachable block id.  Unreachable
    blocks are absent from the result.

    Termination: client lattices are expected to be finite-height (ours
    are, after interval widening and the :data:`MAX_RANGES` cap), but a
    hard :data:`MAX_VISITS` cap stops propagation regardless, so a buggy
    domain degrades to an incomplete analysis instead of a hang.
    """
    instate: Dict[int, object] = {cfg.entry: entry_state}
    visits: Dict[int, int] = {}
    work = deque([cfg.entry])
    queued = {cfg.entry}
    while work:
        bid = work.popleft()
        queued.discard(bid)
        block = cfg.blocks[bid]
        out = transfer(block, instate[bid])
        for succ in block.succs:
            old = instate.get(succ)
            new = out if old is None else join(old, out)
            succ_block = cfg.blocks[succ]
            count = visits.get(succ, 0)
            if (old is not None and widen is not None
                    and succ_block.is_loop_head and count >= WIDEN_AFTER):
                new = widen(old, new)
            if new != old:
                if count >= MAX_VISITS:
                    continue
                visits[succ] = count + 1
                instate[succ] = new
                if succ not in queued:
                    work.append(succ)
                    queued.add(succ)
    return instate
