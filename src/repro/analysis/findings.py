"""The common currency of the analyzer: :class:`Finding`.

Every rule reports a problem the same way — a rule id, a message and a
file, line and column — so the CLI and the tests treat every verdict
uniformly.

This module also owns the interchange format that lets findings travel
beyond the terminal: :func:`to_sarif` / :func:`sarif_json`, SARIF 2.1.0
export, the format code-scanning UIs (GitHub, VS Code SARIF viewers)
ingest.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List

__all__ = [
    "Finding",
    "format_findings",
    "sort_findings",
    "to_sarif",
    "sarif_json",
    "SARIF_VERSION",
]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


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

    def to_dict(self) -> Dict:
        """Plain-dict form used by ``--format=json`` CLI output."""
        return asdict(self)

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


# ---------------------------------------------------------------------------
# SARIF 2.1.0 export
# ---------------------------------------------------------------------------

def _sarif_result(finding: Finding) -> Dict:
    result: Dict = {
        "ruleId": finding.rule,
        "level": "error" if finding.severity == "error" else "warning",
        "message": {"text": finding.message},
    }
    if finding.file:
        region: Dict = {"startLine": max(finding.line, 1)}
        if finding.col:
            region["startColumn"] = finding.col + 1  # SARIF is 1-based
        result["locations"] = [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.file.replace("\\", "/")},
                "region": region,
            },
        }]
    return result


def to_sarif(findings: Iterable[Finding]) -> Dict:
    """A SARIF 2.1.0 log dict for one lint run.

    Rule metadata for every registered rule rides along in the tool
    descriptor, so SARIF viewers can show names and summaries even for
    rules with no results.
    """
    from .rules import all_rule_infos  # local import: rules import Finding
    rules_meta = [{
        "id": info.id,
        "name": info.name,
        "shortDescription": {"text": info.summary},
    } for info in all_rule_infos()]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "simlint",
                    "informationUri":
                        "https://example.invalid/repro/docs/analysis.md",
                    "rules": rules_meta,
                },
            },
            "results": [_sarif_result(f) for f in findings],
        }],
    }


def sarif_json(findings: Iterable[Finding]) -> str:
    """:func:`to_sarif` rendered as an indented JSON document."""
    return json.dumps(to_sarif(findings), indent=2) + "\n"
