"""Static analyzer (simlint): rules, suppression, ordering, and the
shipped tree, which must be clean."""

from pathlib import Path

import pytest

from .simlint import (all_rule_infos, format_findings, lint_file,
                      lint_paths, lint_source)
from .simlint.findings import Finding, sort_findings
from .simlint.lint import PARSE_ERROR_RULE, UNKNOWN_SUPPRESSION_RULE

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"

#: static fixture file -> the one rule it must trigger, exactly once.
STATIC_CASES = [
    ("static_wall_clock.py", "SIM101"),
    ("static_global_random.py", "SIM102"),
    ("static_set_iteration.py", "SIM103"),
    ("static_mutable_default.py", "SIM104"),
    ("static_bare_yield.py", "SIM105"),
    ("static_lock_block.py", "SIM106"),
    ("static_adhoc_instrumentation.py", "SIM107"),
]


class TestRuleRegistry:
    def test_at_least_eight_static_rules(self):
        # SIM101-SIM107 and SIM109; every rule is a static one.
        assert len(all_rule_infos()) >= 8

    def test_rule_ids_unique(self):
        ids = [i.id for i in all_rule_infos()]
        assert len(ids) == len(set(ids))


class TestStaticFixtures:
    @pytest.mark.parametrize("fixture,rule", STATIC_CASES)
    def test_rule_fires_exactly_once(self, fixture, rule):
        findings = lint_file(FIXTURES / fixture)
        assert [f.rule for f in findings] == [rule]

    @pytest.mark.parametrize("fixture,rule", STATIC_CASES)
    def test_rule_is_load_bearing(self, fixture, rule):
        # Disabling the rule silences the fixture entirely: the finding
        # really comes from that rule, not from a sibling.
        assert lint_file(FIXTURES / fixture, disabled=[rule]) == []

    def test_clean_fixture_has_no_findings(self):
        assert lint_file(FIXTURES / "static_clean.py") == []


class TestLintSource:
    def test_suppression_comment(self):
        src = "import random  # simlint: skip\n"
        assert lint_source(src) == []
        assert [f.rule for f in lint_source("import random\n")] == ["SIM102"]

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", filename="broken.py")
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]

    def test_findings_carry_location(self):
        findings = lint_source("import time\nt = time.time()\n",
                               filename="clock.py")
        assert findings and findings[0].file == "clock.py"
        assert findings[0].line == 2

    def test_default_rng_not_flagged(self):
        src = ("import numpy as np\n"
               "rng = np.random.default_rng(0)\n"
               "x = rng.uniform()\n")
        assert lint_source(src) == []


class TestShippedTree:
    def test_shipped_tree_is_clean(self):
        # The runtime, the benches and the examples report nothing; a
        # true false positive is suppressed in place with a commented
        # ``# simlint: disable=RULE``.
        root = Path(__file__).parent.parent
        findings = lint_paths([root / "src" / "repro", root / "benchmarks",
                               root / "examples"])
        assert findings == [], format_findings(findings)


class TestSuppression:
    VIOLATION = FIXTURES / "static_set_iteration.py"
    MARKER = "# hazard: hash-ordered iteration"

    def _suppressed(self, comment: str):
        source = self.VIOLATION.read_text().replace(self.MARKER, comment)
        return lint_source(source, "suppressed.py")

    def test_per_rule_disable_comment(self):
        assert self._suppressed("# simlint: disable=SIM103") == []

    def test_per_rule_disable_leaves_other_rules(self):
        # Suppressing an unrelated rule on the line changes nothing.
        findings = self._suppressed("# simlint: disable=SIM104")
        assert [f.rule for f in findings] == ["SIM103"]

    def test_multi_rule_disable_comment(self):
        assert self._suppressed("# simlint: disable=SIM102,SIM103") == []

    def test_unknown_rule_id_warns(self):
        findings = lint_source("x = 1  # simlint: disable=SIM999\n", "u.py")
        assert [f.rule for f in findings] == [UNKNOWN_SUPPRESSION_RULE]
        assert findings[0].severity == "warning"
        assert "SIM999" in findings[0].message

    def test_removed_flow_rule_id_is_unknown(self):
        # SIM110-SIM115 are gone: the runtime raises on those faults.
        findings = lint_source("x = 1  # simlint: disable=SIM110\n", "u.py")
        assert [f.rule for f in findings] == [UNKNOWN_SUPPRESSION_RULE]

    def test_blanket_skip_still_works(self):
        assert self._suppressed("# simlint: skip") == []


class TestOrderingAndDedup:
    def test_sorted_by_location_then_rule(self):
        a = Finding(rule="SIM104", message="m", file="b.py", line=3)
        b = Finding(rule="SIM103", message="m", file="b.py", line=3)
        c = Finding(rule="SIM105", message="m", file="a.py", line=9)
        d = Finding(rule="SIM103", message="m", file="b.py", line=1)
        assert sort_findings([a, b, c, d]) == [c, d, b, a]

    def test_exact_duplicates_dropped(self):
        f = Finding(rule="SIM103", message="m", file="x.py", line=1)
        assert sort_findings([f, f, f]) == [f]

    def test_lint_output_is_sorted(self):
        findings = lint_paths([FIXTURES])
        assert len(findings) > 1
        assert findings == sort_findings(findings)

