"""``simlint``: the repository's own static determinism linter.

A developer tool, not part of the ``repro`` runtime: an AST linter over
code written against the simulated substrate, with rules for
determinism hazards (wall-clock reads, global RNG state, hash-ordered
iteration, mutable defaults) and sim-API misuse (bare yields, blocking
while holding a simulated mutex, ad-hoc instrumentation).
``tests/test_analysis_lint.py`` runs it over ``src/repro``,
``benchmarks`` and ``examples`` in the tier-1 suite, so any finding
fails the tests.

Findings are :class:`Finding` objects; the rule reference lives in
``docs/analysis.md``.  Misuse of the partitioned state machine itself
(double ``pready``, out-of-range partitions, ``wait`` without ``start``)
is left to the runtime, which raises ``RequestStateError`` or
``PartitionError``.

Example
-------
>>> from tests.simlint import lint_source
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
