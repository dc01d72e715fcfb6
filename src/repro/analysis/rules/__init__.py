"""Rule registry for the ``simlint`` static pass and the dynamic checker.

Static rules are classes with a :meth:`Rule.check` method running over a
parsed AST; they self-register on import via :func:`register`.  Dynamic
rules are enforced by :mod:`repro.analysis.checker` at simulation time, so
here they are represented only by :class:`RuleInfo` descriptors — one
registry drives the documentation table, the CLI and per-rule disabling
for both passes.
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
    "DYNAMIC_RULES",
]


@dataclass(frozen=True)
class RuleInfo:
    """Descriptor of one rule: identifier, pass, and one-line summary."""

    id: str
    name: str
    category: str  # "static" | "dynamic"
    summary: str


class Rule:
    """Base class for static ``simlint`` rules.

    Subclasses set :attr:`id`, :attr:`name` and :attr:`summary`, and
    implement :meth:`check` yielding :class:`~repro.analysis.findings.
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
        return RuleInfo(self.id, self.name, "static", self.summary)

    def finding(self, filename: str, node: ast.AST, message: str,
                severity: str = "error") -> Finding:
        """Build a finding anchored at ``node``'s source location."""
        return Finding(rule=self.id, message=message, file=filename,
                       line=getattr(node, "lineno", 0), severity=severity)


_STATIC: Dict[str, Rule] = {}

#: Descriptors of the rules enforced at simulation time by
#: :class:`repro.analysis.checker.Checker`.  Misuse of the request state
#: machine needs no rule here: the runtime raises on it.
DYNAMIC_RULES = (
    RuleInfo("PART004", "write-after-pready", "dynamic",
             "send buffer written after the partition was marked ready "
             "(happens-before race with the transfer)"),
    RuleInfo("PART005", "read-before-parrived", "dynamic",
             "receive buffer read before the partition arrived "
             "(happens-before race with the transfer)"),
    RuleInfo("RES001", "resource-deadlock", "dynamic",
             "cycle in the wait-for graph over simulated resources"),
    RuleInfo("FIN001", "request-leak", "dynamic",
             "partitioned request with an epoch started but never waited "
             "at finalize"),
    RuleInfo("FIN002", "unmatched-partitioned-init", "dynamic",
             "psend_init/precv_init never matched by its peer half at "
             "finalize"),
)


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
    """Descriptors for every rule, static first, then dynamic."""
    return [r.info() for r in static_rules()] + list(DYNAMIC_RULES)


def known_rule_ids() -> List[str]:
    """Every valid rule id (used to validate ``--disable`` arguments)."""
    return [info.id for info in all_rule_infos()]


@register
class UnknownSuppressionRule(Rule):
    """SIM109: a suppression comment names a rule id that does not exist.

    Enforced by the suppression-comment parser in
    :mod:`repro.analysis.lint` (it needs the raw source, not the AST), so
    :meth:`check` finds nothing; registering it here gives the rule its
    ``--disable`` id, its documentation row and its SARIF metadata.
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
