"""Typed event schema: registered kinds with declared fields.

Every event flowing through :mod:`repro.obs` belongs to a *kind* that was
registered up front with the fields its payload carries.  Registration
interns the kind: emitters hold the returned :class:`EventKind` object and
the bus dispatches on its small integer :attr:`~EventKind.id`, so the
disabled-emission fast path is an index into a list, not a dict lookup on
a string.

Payload values are JSON-primitive: exporters and digests render every
declared field.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..errors import ConfigurationError

__all__ = ["EventKind", "EventSchema", "SCHEMA"]


class EventKind:
    """One registered, interned event kind.

    Attributes
    ----------
    id:
        Dense integer id within the owning schema (the bus dispatch key).
    name:
        Dotted category string, e.g. ``"part.pready"``.
    fields:
        Declared payload field names, in emission order.
    doc:
        One-line description for the kinds reference table.
    """

    __slots__ = ("id", "name", "fields", "doc", "_canon_name",
                 "_canon_prefixes")

    def __init__(self, kind_id: int, name: str, fields: Sequence[str],
                 doc: str):
        object.__setattr__(self, "id", kind_id)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", tuple(fields))
        object.__setattr__(self, "doc", doc)
        # Precomputed separator-carrying fragments of the canonical wire
        # format ("|<name>", "|<field>="), so serialization concatenates
        # instead of re-formatting per record.
        object.__setattr__(self, "_canon_name", "|" + name)
        object.__setattr__(self, "_canon_prefixes", tuple(
            "|" + f + "=" for f in self.fields))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError(f"EventKind is immutable; cannot set {name}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EventKind {self.name} #{self.id} {self.fields}>"


class EventSchema:
    """A registry of :class:`EventKind` objects with dense integer ids.

    One process-wide instance (:data:`SCHEMA`) carries every built-in kind
    (see :mod:`repro.obs.kinds`); tests may build private schemas.
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, EventKind] = {}
        self._kinds: List[EventKind] = []

    def register(self, name: str, fields: Sequence[str] = (),
                 doc: str = "") -> EventKind:
        """Register a new kind; returns the interned :class:`EventKind`.

        Re-registering a name is an error — kind ids must stay stable for
        the lifetime of the schema.
        """
        if name in self._by_name:
            raise ConfigurationError(f"event kind {name!r} already "
                                     f"registered")
        kind = EventKind(len(self._kinds), name, fields, doc)
        self._by_name[name] = kind
        self._kinds.append(kind)
        return kind

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._kinds)

    def kind(self, name: str) -> EventKind:
        """The kind registered under ``name`` (raises on unknown names)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(f"unknown event kind {name!r}")

    def kinds(self) -> List[EventKind]:
        """Every registered kind, in id order."""
        return list(self._kinds)

    def resolve(self, patterns: Iterable[str]) -> List[EventKind]:
        """Expand kind patterns into registered kinds, in id order.

        A pattern is an exact kind name (``part.pready``), a category
        wildcard (``part.*``), or ``*`` for everything.  A pattern that
        matches nothing raises :class:`~repro.errors.ConfigurationError` —
        a typo'd filter silently exporting nothing would defeat the tool.
        """
        selected: Dict[int, EventKind] = {}
        for pattern in patterns:
            pattern = pattern.strip()
            if not pattern:
                continue
            if pattern == "*":
                matches = self._kinds
            elif pattern.endswith(".*"):
                prefix = pattern[:-1]  # keep the dot
                matches = [k for k in self._kinds
                           if k.name.startswith(prefix)]
            else:
                matches = ([self._by_name[pattern]]
                           if pattern in self._by_name else [])
            if not matches:
                known = ", ".join(sorted(self._by_name))
                raise ConfigurationError(
                    f"unknown event kind or pattern {pattern!r} "
                    f"(known kinds: {known})")
            for kind in matches:
                selected[kind.id] = kind
        return [selected[i] for i in sorted(selected)]


#: The process-wide schema holding every built-in kind.
SCHEMA = EventSchema()
