"""The ``simlint`` engine: parse, run every rule, apply suppressions.

An AST-based linter for programs written against the simulated substrate
(:mod:`repro.sim`, :mod:`repro.mpi`, :mod:`repro.partitioned`): one
pattern pass of per-node rules for determinism hazards and
simulation-API misuse (SIM101–SIM107) over every module.  Misuse of the
partitioned-request lifecycle is left to the runtime, which raises on
it.

Usage::

    from tests.simlint import lint_paths
    findings = lint_paths(["src/repro", "benchmarks", "examples"])

Suppression comments:

* ``# simlint: skip`` silences every finding on its line;
* ``# simlint: disable=SIM103`` (or ``disable=SIM103,SIM104``) silences
  only the named rules on its line.  Naming a rule id that does not
  exist is itself reported (SIM109) — a typo'd suppression guards
  nothing and should not pass silently.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, \
    Tuple

from .findings import Finding, sort_findings
from .rules import known_rule_ids, static_rules

__all__ = ["lint_source", "lint_file", "lint_paths", "iter_python_files"]

#: Magic comment suppressing every finding on its line.
SKIP_MARKER = "simlint: skip"

#: Rule id reported for files the parser rejects.
PARSE_ERROR_RULE = "SIM100"

#: Rule id for suppression comments naming unknown rule ids.
UNKNOWN_SUPPRESSION_RULE = "SIM109"

#: ``# simlint: disable=SIM103,SIM104`` (ids validated separately).
_DISABLE_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")


def _parse_suppressions(source: str, filename: str
                        ) -> Tuple[Set[int], Dict[int, Set[str]],
                                   List[Finding]]:
    """Parse suppression comments out of ``source``.

    Returns ``(blanket_lines, per_rule_lines, warnings)`` where
    ``blanket_lines`` holds 1-based line numbers carrying
    ``# simlint: skip``, ``per_rule_lines`` maps line numbers to the rule
    ids disabled there, and ``warnings`` are SIM109 findings for unknown
    ids named in ``disable=`` comments.
    """
    blanket: Set[int] = set()
    per_rule: Dict[int, Set[str]] = {}
    warnings: List[Finding] = []
    known = set(known_rule_ids())
    for lineno, line in enumerate(source.splitlines(), start=1):
        if SKIP_MARKER in line:
            blanket.add(lineno)
        match = _DISABLE_RE.search(line)
        if not match:
            continue
        ids = {part.strip() for part in match.group(1).split(",")
               if part.strip()}
        for rule_id in sorted(ids - known):
            warnings.append(Finding(
                rule=UNKNOWN_SUPPRESSION_RULE,
                message=f"suppression comment names unknown rule id "
                        f"{rule_id!r} (known ids: SIM1xx; "
                        f"see docs/analysis.md)",
                file=filename, line=lineno,
                col=max(line.find("#"), 0), severity="warning"))
        per_rule.setdefault(lineno, set()).update(ids & known)
    return blanket, per_rule, warnings


def lint_source(source: str, filename: str = "<string>",
                disabled: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint one module's source text; returns findings sorted by location.

    Every registered pattern rule runs except the ids in ``disabled``.
    Findings are deduplicated and sorted by
    ``(path, line, col, rule, message)``.  A file that does not parse
    produces a single ``SIM100`` finding instead of raising.
    """
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [Finding(rule=PARSE_ERROR_RULE,
                        message=f"file does not parse: {exc.msg}",
                        file=filename, line=exc.lineno or 0)]
    banned = frozenset(disabled or ())
    blanket, per_rule, warnings = _parse_suppressions(source, filename)
    findings: List[Finding] = []
    if UNKNOWN_SUPPRESSION_RULE not in banned:
        findings.extend(warnings)
    for rule in static_rules():
        if rule.id not in banned:
            findings.extend(rule.check(tree, filename))
    kept = [
        f for f in findings
        if f.line not in blanket and f.rule not in per_rule.get(f.line, ())
    ]
    return sort_findings(kept)


def lint_file(path, disabled: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint one file on disk (see :func:`lint_source`)."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, filename=str(path), disabled=disabled)


def iter_python_files(paths: Sequence) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of ``*.py`` paths.

    Directories are walked recursively; non-Python files given explicitly
    are ignored, so globs can be passed straight through from a shell.
    A path that does not exist raises :class:`FileNotFoundError` — a
    typo'd path silently linting nothing would defeat the tree check.
    """
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_paths(paths: Sequence,
               disabled: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint every Python file under ``paths`` (files or directory trees).

    An empty return value means the tree is clean.
    """
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, disabled=disabled))
    return findings
