"""The common currency of the analyzer: :class:`Finding`.

Every rule reports a problem the same way — a rule id, a message and a
file, line and column — so the tests treat every verdict uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

__all__ = ["Finding", "format_findings", "sort_findings"]


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes
    ----------
    rule:
        The rule identifier (``SIM1xx``); see ``docs/analysis.md`` for the
        reference table.
    message:
        Human-readable description of what went wrong and where.
    file / line / col:
        Source location (``line`` is 0 when unknown, ``col`` is a 0-based
        column offset).
    severity:
        ``"error"`` for definite misuse, ``"warning"`` for hazards.
    """

    rule: str
    message: str
    file: str = ""
    line: int = 0
    col: int = 0
    severity: str = "error"

    def format(self) -> str:
        """Render as a one-line ``location: RULE message`` diagnostic."""
        where = f"{self.file}:{self.line}"
        if self.col:
            where += f":{self.col + 1}"
        return f"{where}: {self.rule} [{self.severity}] {self.message}"

    def sort_key(self):
        """Stable report order: ``(path, line, col, rule id, message)``."""
        return (self.file, self.line, self.col, self.rule, self.message)


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Sort by location then rule id, dropping exact duplicates.

    Two rules, or one rule visiting a node twice, can produce the same
    finding; the report should show it once, in a stable order.
    """
    seen = set()
    out: List[Finding] = []
    for finding in sorted(findings, key=Finding.sort_key):
        if finding not in seen:
            seen.add(finding)
            out.append(finding)
    return out


def format_findings(findings: List[Finding]) -> str:
    """Render a findings list, one diagnostic per line (empty string if none)."""
    return "\n".join(f.format() for f in findings)
