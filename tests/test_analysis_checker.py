"""Dynamic checker: each rule proven load-bearing on a fixture program."""

from pathlib import Path

import pytest

from repro.analysis import check_file, enable_checking, run_checked
from repro.analysis.checker import load_program
from repro.cli import main
from repro.errors import ConfigurationError
from repro.mpi import Cluster
from repro.mpi.diagnostics import cluster_report, collect_diagnostics

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"

#: dynamic fixture file -> the one rule it must trigger, exactly once.
DYNAMIC_CASES = [
    ("write_after_pready.py", "PART004"),
    ("read_before_parrived.py", "PART005"),
    ("leaked_request.py", "FIN001"),
    ("unmatched_send.py", "FIN002"),
    ("deadlock_two_rank.py", "RES001"),
]


class TestDynamicFixtures:
    @pytest.mark.parametrize("fixture,rule", DYNAMIC_CASES)
    def test_rule_fires_exactly_once(self, fixture, rule):
        report = check_file(FIXTURES / fixture)
        assert [f.rule for f in report.findings] == [rule]
        assert not report.ok

    @pytest.mark.parametrize("fixture,rule", DYNAMIC_CASES)
    def test_rule_is_load_bearing(self, fixture, rule):
        # With the rule disabled the checker stays silent: the finding
        # really comes from that rule's check.
        report = check_file(FIXTURES / fixture, disabled=[rule])
        assert report.findings == []

    def test_clean_program_reports_clean(self):
        report = check_file(FIXTURES / "clean.py")
        assert report.ok
        assert report.findings == []
        assert report.error is None
        assert "CLEAN" in report.format()

    def test_findings_carry_rank_and_time(self):
        report = check_file(FIXTURES / "write_after_pready.py")
        finding = report.findings[0]
        assert finding.rank == 0
        assert finding.time is not None


#: fixture -> the runtime error that ends it.  The runtime enforces the
#: request state machine itself, so no checker rule covers these faults.
RUNTIME_CASES = [
    ("double_pready.py", "RequestStateError"),
    ("out_of_range.py", "PartitionError"),
    ("wait_without_start.py", "RequestStateError"),
    ("buffer_out_of_range.py", "PartitionError"),
    ("unreadied_partition.py", "DeadlockError"),
]


class TestRuntimeEnforced:
    @pytest.mark.parametrize("fixture,error", RUNTIME_CASES)
    def test_runtime_error_is_the_verdict(self, fixture, error):
        report = check_file(FIXTURES / fixture)
        assert report.findings == []
        assert not report.ok
        assert report.error.startswith(f"{error}: ")

    @pytest.mark.parametrize("fixture,error", RUNTIME_CASES)
    def test_check_exits_one(self, fixture, error, capsys):
        assert main(["check", str(FIXTURES / fixture)]) == 1
        assert f"runtime error: {error}: " in capsys.readouterr().out


class TestEnableChecking:
    def test_checker_attached_everywhere(self):
        cluster = Cluster(nranks=2)
        checker = enable_checking(cluster)
        assert cluster.checker is checker
        # The checker is an ordinary sink subscribed to every part.* kind.
        for name in ("part.init", "part.start", "part.wait", "part.pready",
                     "part.arrived", "part.buffer_write"):
            kind = cluster.obs.schema.kind(name)
            assert cluster.obs.subscribed(kind)
        assert cluster.sim.monitor is checker.monitor

    def test_checking_does_not_perturb_schedule(self):
        loaded = load_program(FIXTURES / "clean.py")
        plain = Cluster(nranks=2)
        plain_results = plain.run(loaded["program"])
        report = run_checked(loaded["program"], nranks=2)
        assert report.results == plain_results

    def test_run_checked_survives_program_errors(self):
        report = check_file(FIXTURES / "out_of_range.py")
        assert report.error is not None
        assert "VIOLATIONS" in report.format()


class TestLoadProgram:
    def test_missing_file_rejected(self):
        with pytest.raises(ConfigurationError):
            load_program(FIXTURES / "does_not_exist.py")

    def test_file_without_program_rejected(self, tmp_path):
        bad = tmp_path / "no_program.py"
        bad.write_text("VALUE = 3\n")
        with pytest.raises(ConfigurationError):
            load_program(bad)

    def test_nranks_honoured(self):
        loaded = load_program(FIXTURES / "clean.py")
        assert loaded["nranks"] == 2


class TestDiagnosticsIntegration:
    def test_checker_findings_surface_per_rank(self):
        loaded = load_program(FIXTURES / "write_after_pready.py")
        cluster = Cluster(nranks=2)
        checker = enable_checking(cluster)
        cluster.run(loaded["program"])
        checker.finalize()
        diags = collect_diagnostics(cluster)
        assert diags[0].checker_findings == 1
        assert diags[1].checker_findings == 0
        report = cluster_report(cluster)
        assert "checks" in report and "1!" in report

    def test_unchecked_cluster_reports_zero(self):
        loaded = load_program(FIXTURES / "clean.py")
        cluster = Cluster(nranks=2)
        cluster.run(loaded["program"])
        diags = collect_diagnostics(cluster)
        assert all(d.checker_findings == 0 for d in diags)
