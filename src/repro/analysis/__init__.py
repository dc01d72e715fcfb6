"""Static correctness analysis for programs on the simulated substrate.

The paper positions its suite as "a tool for developers to evaluate their
designs"; this package adds ``simlint``, which tells you a program is
*wrong*, not just slow: :func:`lint_paths` / :func:`lint_file` /
:func:`lint_source` — an AST linter over programs written against the
simulated substrate, with rules for determinism hazards (wall-clock
reads, global RNG state, hash-ordered iteration, mutable defaults) and
sim-API misuse (bare yields, blocking while holding a simulated mutex).
CLI: ``python -m repro lint src/repro benchmarks examples``.

Findings are :class:`Finding` objects; the rule reference lives in
``docs/analysis.md``.  Misuse of the partitioned state machine itself
(double ``pready``, out-of-range partitions, ``wait`` without ``start``)
is left to the runtime, which raises ``RequestStateError`` or
``PartitionError``.

Example
-------
>>> from repro.analysis import lint_source
>>> src = "import random\\n"
>>> [f.rule for f in lint_source(src)]
['SIM102']
"""

from .findings import Finding, format_findings
from .lint import lint_file, lint_paths, lint_source
from .rules import Rule, RuleInfo, all_rule_infos

__all__ = [
    "Finding",
    "format_findings",
    "lint_file",
    "lint_paths",
    "lint_source",
    "Rule",
    "RuleInfo",
    "all_rule_infos",
]
