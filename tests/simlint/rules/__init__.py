"""Rule registry for the ``simlint`` static pass.

Rules are classes with a :meth:`Rule.check` method running over a parsed
AST; they self-register on import via :func:`register`.  One registry
drives the documentation table, suppression-id checking and per-rule
disabling.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Type

from ..findings import Finding

__all__ = [
    "Rule",
    "RuleInfo",
    "register",
    "static_rules",
    "all_rule_infos",
    "known_rule_ids",
]


@dataclass(frozen=True)
class RuleInfo:
    """Descriptor of one rule: identifier, name, and one-line summary."""

    id: str
    name: str
    summary: str


class Rule:
    """Base class for static ``simlint`` rules.

    Subclasses set :attr:`id`, :attr:`name` and :attr:`summary`, and
    implement :meth:`check` yielding :class:`~tests.simlint.findings.
    Finding` objects.  Registration happens via the :func:`register`
    decorator, which instantiates the class once.
    """

    id: str = ""
    name: str = ""
    summary: str = ""

    def check(self, tree: ast.AST, filename: str) -> Iterable[Finding]:
        """Yield findings for one parsed module."""
        raise NotImplementedError

    def info(self) -> RuleInfo:
        """This rule's registry descriptor."""
        return RuleInfo(self.id, self.name, self.summary)

    def finding(self, filename: str, node: ast.AST, message: str,
                severity: str = "error") -> Finding:
        """Build a finding anchored at ``node``'s source location."""
        return Finding(rule=self.id, message=message, file=filename,
                       line=getattr(node, "lineno", 0), severity=severity)


_STATIC: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add a static rule to the registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"static rule {cls.__name__} lacks an id")
    if rule.id in _STATIC:
        raise ValueError(f"duplicate static rule id {rule.id}")
    _STATIC[rule.id] = rule
    return cls


def static_rules() -> List[Rule]:
    """All registered static rules, in id order."""
    return [_STATIC[k] for k in sorted(_STATIC)]


def all_rule_infos() -> List[RuleInfo]:
    """Descriptors for every rule, in id order."""
    return [r.info() for r in static_rules()]


def known_rule_ids() -> List[str]:
    """Every valid rule id (used to validate ``disable=`` comments)."""
    return [info.id for info in all_rule_infos()]


@register
class UnknownSuppressionRule(Rule):
    """SIM109: a suppression comment names a rule id that does not exist.

    Enforced by the suppression-comment parser in
    :mod:`tests.simlint.lint` (it needs the raw source, not the AST), so
    :meth:`check` finds nothing; registering it here gives the rule its
    ``disabled=`` id and its documentation row.
    """

    id = "SIM109"
    name = "unknown-suppression"
    summary = ("a '# simlint: disable=...' comment names an unknown rule "
               "id — the typo'd suppression silently guards nothing")

    def check(self, tree: ast.AST, filename: str) -> Iterable[Finding]:
        """Reported by the suppression parser, not per AST."""
        return ()


# Importing the rule modules populates the registry.
from . import determinism as _determinism  # noqa: E402  (registration import)
from . import instrumentation as _instrumentation  # noqa: E402
from . import simapi as _simapi  # noqa: E402  (registration import)

_ = (_determinism, _instrumentation, _simapi)
