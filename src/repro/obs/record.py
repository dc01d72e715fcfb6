"""Slotted, immutable event records.

An :class:`EventRecord` is the unit that flows from an emit site through
the bus to every subscribed sink: the simulated timestamp, the interned
:class:`~repro.obs.schema.EventKind`, and the payload values in the
kind's declared field order.  Records are immutable after construction —
the same object is handed to every sink, so no sink may mutate it — and
slotted, so a run that records millions of events stays cheap.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from .schema import EventKind

__all__ = ["EventRecord"]

#: Bypass for the immutability guard below — one record is built per
#: subscribed emission, so the three stores in ``__init__`` are hot.
_set = object.__setattr__


class EventRecord:
    """One immutable event: ``(time, kind, values)``.

    ``values`` is a tuple aligned with ``kind.fields``.  Use :attr:`data`
    for a field-name → value mapping, or :meth:`get` for one field.
    """

    __slots__ = ("time", "kind", "values")

    def __init__(self, time: float, kind: EventKind, values: Tuple):
        _set(self, "time", time)
        _set(self, "kind", kind)
        _set(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"EventRecord is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"EventRecord is immutable; cannot delete {name!r}")

    def __repr__(self) -> str:
        pairs = ", ".join(f"{f}={v!r}"
                          for f, v in zip(self.kind.fields, self.values,
                                          strict=True))
        return f"<{self.kind.name} t={self.time:g} {pairs}>"

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventRecord):
            return NotImplemented
        return (self.time == other.time and self.kind is other.kind
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash((self.time, self.kind.id, self.values))

    @property
    def data(self) -> Dict[str, Any]:
        """Field-name → value mapping for every declared field."""
        return dict(zip(self.kind.fields, self.values, strict=True))

    def get(self, field: str, default: Any = None) -> Any:
        """The value of one named field (``default`` if not declared)."""
        try:
            return self.values[self.kind.fields.index(field)]
        except ValueError:
            return default
