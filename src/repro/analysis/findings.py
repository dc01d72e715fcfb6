"""The common currency of the analyzer: :class:`Finding`.

Both halves of :mod:`repro.analysis` report problems the same way — the
static linter attaches a file, line and column, the dynamic checker
attaches a rank and a simulated time — so the CLI, the diagnostics report
and the tests can treat every verdict uniformly.

This module also owns the two interchange formats that let findings
travel beyond the terminal:

* :func:`to_sarif` / :func:`sarif_json` — SARIF 2.1.0 export, the format
  code-scanning UIs (GitHub, VS Code SARIF viewers) ingest;
* :func:`write_baseline` / :func:`load_baseline` / :func:`new_findings` —
  a fingerprint baseline so pre-existing findings can be grandfathered
  while CI still fails on anything *new*.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Finding",
    "format_findings",
    "sort_findings",
    "to_sarif",
    "sarif_json",
    "finding_fingerprint",
    "write_baseline",
    "load_baseline",
    "new_findings",
    "SARIF_VERSION",
    "BASELINE_VERSION",
]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

#: Baseline file schema marker (bump on incompatible fingerprint changes).
BASELINE_VERSION = 1


@dataclass(frozen=True)
class Finding:
    """One rule violation, from either the static or the dynamic pass.

    Attributes
    ----------
    rule:
        The rule identifier (``SIM1xx`` static, ``PART/RES/FINxxx``
        dynamic); see ``docs/analysis.md`` for the reference table.
    message:
        Human-readable description of what went wrong and where.
    file / line / col:
        Source location (static findings; ``line`` is 0 when unknown,
        ``col`` is a 0-based column offset).
    rank:
        The simulated rank that violated the rule (dynamic findings).
    time:
        Simulated time of the violation in seconds (dynamic findings).
    severity:
        ``"error"`` for definite misuse, ``"warning"`` for hazards.
    """

    rule: str
    message: str
    file: str = ""
    line: int = 0
    col: int = 0
    rank: Optional[int] = None
    time: Optional[float] = None
    severity: str = "error"

    def format(self) -> str:
        """Render as a one-line ``location: RULE message`` diagnostic."""
        if self.file:
            where = f"{self.file}:{self.line}"
            if self.col:
                where += f":{self.col + 1}"
        elif self.rank is not None:
            where = f"rank {self.rank} @ t={self.time or 0.0:.6f}s"
        else:
            where = "finalize"
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
    elif finding.rank is not None:
        result["properties"] = {"rank": finding.rank}
        if finding.time is not None:
            result["properties"]["simTime"] = finding.time
    return result


def to_sarif(findings: Iterable[Finding]) -> Dict:
    """A SARIF 2.1.0 log dict for one lint/check run.

    Rule metadata for every registered rule rides along in the tool
    descriptor, so SARIF viewers can show names and summaries even for
    rules with no results.
    """
    from .rules import all_rule_infos  # local import: rules import Finding
    rules_meta = [{
        "id": info.id,
        "name": info.name,
        "shortDescription": {"text": info.summary},
        "properties": {"category": info.category},
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


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def finding_fingerprint(finding: Finding) -> str:
    """Location-tolerant identity used by the baseline gate.

    Deliberately excludes the line/column so that unrelated edits moving
    a finding do not make it "new"; the message includes enough detail
    (names, indices) to keep distinct findings distinct.
    """
    return f"{finding.rule}|{finding.file}|{finding.message}"


def write_baseline(findings: Iterable[Finding], path) -> int:
    """Write the baseline file for ``findings``; returns the count."""
    counts = Counter(finding_fingerprint(f) for f in findings)
    payload = {
        "version": BASELINE_VERSION,
        "fingerprints": {fp: n for fp, n in sorted(counts.items())},
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
    return sum(counts.values())


def load_baseline(path) -> Counter:
    """Load a baseline written by :func:`write_baseline`.

    Raises ``ValueError`` on a missing or incompatible file — a stale
    baseline silently gating nothing would defeat CI.
    """
    p = Path(path)
    if not p.exists():
        raise ValueError(f"no baseline at {p}; write one with "
                         f"--write-baseline")
    data = json.loads(p.read_text(encoding="utf-8"))
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(f"baseline version {data.get('version')!r} != "
                         f"{BASELINE_VERSION}; regenerate it")
    return Counter(data.get("fingerprints", {}))


def new_findings(findings: Iterable[Finding],
                 baseline: Counter) -> List[Finding]:
    """Findings not covered by ``baseline`` (fingerprint-count aware).

    If the baseline recorded a fingerprint N times, the first N matching
    findings are grandfathered and any further ones are new.
    """
    budget = Counter(baseline)
    fresh: List[Finding] = []
    for finding in findings:
        fp = finding_fingerprint(finding)
        if budget[fp] > 0:
            budget[fp] -= 1
        else:
            fresh.append(finding)
    return fresh
