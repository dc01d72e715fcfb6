"""Static + dynamic correctness analysis for partitioned MPI programs.

The paper positions its suite as "a tool for developers to evaluate their
designs"; this package adds the other half of that promise — telling you
a design is *wrong*, not just slow.  It has two cooperating layers:

``simlint`` (static)
    :func:`lint_paths` / :func:`lint_file` / :func:`lint_source` — an
    AST linter over programs written against the simulated substrate,
    with rules for determinism hazards (wall-clock reads, global RNG
    state, hash-ordered iteration, mutable defaults) and sim-API misuse
    (bare yields, blocking while holding a simulated mutex).  CLI:
    ``python -m repro lint src/repro benchmarks examples``.

dynamic checking
    :func:`enable_checking` attaches a :class:`Checker` to a cluster; it
    tracks per-partition happens-before for buffer writes/reads, and at
    finalize sweeps for leaked requests, unmatched init halves and
    wait-for-graph deadlocks over simulated resources.  CLI:
    ``python -m repro check path/to/program.py``.

Both layers report :class:`Finding` objects; the rule reference lives in
``docs/analysis.md``.  Misuse of the partitioned state machine itself
(double ``pready``, out-of-range partitions, ``wait`` without ``start``)
is left to the runtime, which raises ``RequestStateError`` or
``PartitionError``; ``check`` reports that error as the run's verdict.

Example
-------
>>> from repro.analysis import lint_source
>>> src = "import random\\n"
>>> [f.rule for f in lint_source(src)]
['SIM102']
"""

from .checker import (
    Checker,
    CheckReport,
    check_file,
    enable_checking,
    run_checked,
)
from .deadlock import ResourceMonitor, WaitForGraph
from .findings import Finding, format_findings
from .lint import lint_file, lint_paths, lint_source
from .races import PartitionState, PartitionTracker
from .rules import DYNAMIC_RULES, Rule, RuleInfo, all_rule_infos

__all__ = [
    "Checker",
    "CheckReport",
    "check_file",
    "enable_checking",
    "run_checked",
    "ResourceMonitor",
    "WaitForGraph",
    "Finding",
    "format_findings",
    "lint_file",
    "lint_paths",
    "lint_source",
    "PartitionState",
    "PartitionTracker",
    "Rule",
    "RuleInfo",
    "DYNAMIC_RULES",
    "all_rule_infos",
]
