"""CLI: argument parsing and end-to-end command output."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.suite import FIGURES

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
ARCHIVES = Path(__file__).parent.parent / "benchmarks" / "output"


def _assert_prints_archive(capsys, argv, archive):
    """``repro <argv>`` prints exactly the bench's archived tables, plus
    the engine footer when the figure runs on the sweep engine."""
    assert main(argv) == 0
    tables = capsys.readouterr().out.split("\n\nsweep engine: ")[0]
    assert tables.rstrip("\n") + "\n" == \
        (ARCHIVES / f"{archive}.txt").read_text()


class TestParser:
    def test_all_figures_registered(self):
        parser = build_parser()
        for name in FIGURES:
            args = parser.parse_args([name])
            assert args.command == name
            assert args.full is False

    def test_full_flag(self):
        args = build_parser().parse_args(["fig4", "--full"])
        assert args.full is True

    def test_metrics_required_args(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["metrics"])
        args = parser.parse_args(
            ["metrics", "--message-bytes", "1024", "--partitions", "4"])
        assert args.message_bytes == 1024
        assert args.partitions == 4
        assert args.noise == "none"

    def test_sweep_save_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--save", "out.json"])
        capsys.readouterr()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_lint_args(self):
        args = build_parser().parse_args(
            ["lint", "src", "tests", "--format", "json",
             "--disable", "SIM103", "--disable", "SIM104"])
        assert args.paths == ["src", "tests"]
        assert args.format == "json"
        assert args.disable == ["SIM103", "SIM104"]

    def test_check_args(self):
        args = build_parser().parse_args(
            ["check", "prog.py", "--nranks", "4"])
        assert args.program == "prog.py"
        assert args.nranks == 4
        assert args.format == "text"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_metrics_prints_all_four(self, capsys):
        code = main(["metrics", "--message-bytes", "65536",
                     "--partitions", "4", "--compute-ms", "1",
                     "--noise", "uniform", "--iterations", "2"])
        assert code == 0
        out = capsys.readouterr().out
        for phrase in ("overhead", "perceived bandwidth",
                       "application availability", "early-bird"):
            assert phrase in out

    def test_metrics_rejects_non_finite_compute(self):
        # Regression: NaN compute once printed availability -1.338, exit 0;
        # a finite 1e300 ms once overflowed the simulated clock mid-trial.
        from repro.errors import ConfigurationError
        for compute_ms, reason in (("nan", "finite"),
                                   ("1e300", r"2\*\*22")):
            with pytest.raises(ConfigurationError, match=reason):
                main(["metrics", "--message-bytes", "1024",
                      "--partitions", "4", "--compute-ms", compute_ms])

    def test_metrics_native_impl(self, capsys):
        assert main(["metrics", "--message-bytes", "65536",
                     "--partitions", "4", "--compute-ms", "1",
                     "--impl", "native", "--iterations", "2"]) == 0
        assert "native" in capsys.readouterr().out

    def test_advisor(self, capsys):
        code = main(["advisor", "--message-bytes", "262144",
                     "--compute-ms", "2", "--iterations", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended partitions" in out
        assert "<-- recommended" in out

    def test_fig4_runs_quick(self, capsys):
        _assert_prints_archive(capsys, ["fig4", "--jobs", "1"],
                               "fig04_overhead")

    def test_fig7_runs_quick(self, capsys):
        _assert_prints_archive(capsys, ["fig7", "--jobs", "1"],
                               "fig07_noise_models")

    def test_fig9_runs_quick(self, capsys):
        _assert_prints_archive(capsys, ["fig9"], "fig09_sweep3d_10ms")

    def test_fig13_runs_quick(self, capsys):
        _assert_prints_archive(capsys, ["fig13"], "fig13_snap_projection")


class TestAnalysisCommands:
    def test_lint_clean_path_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "static_clean.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_findings_exit_one(self, capsys):
        code = main(["lint", str(FIXTURES / "static_wall_clock.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "SIM101" in out and "1 finding(s)" in out

    def test_lint_disable_silences_rule(self, capsys):
        code = main(["lint", str(FIXTURES / "static_wall_clock.py"),
                     "--disable", "SIM101"])
        assert code == 0
        capsys.readouterr()

    def test_lint_json_output(self, capsys):
        code = main(["lint", str(FIXTURES / "static_global_random.py"),
                     "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "SIM102"

    def test_lint_shipped_tree_clean(self, capsys):
        root = Path(__file__).parent.parent
        code = main(["lint", str(root / "src" / "repro"),
                     str(root / "benchmarks"), str(root / "examples")])
        assert code == 0
        capsys.readouterr()

    def test_check_clean_program(self, capsys):
        assert main(["check", str(FIXTURES / "clean.py")]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_check_violating_program_exits_one(self, capsys):
        code = main(["check", str(FIXTURES / "double_pready.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert ("runtime error: RequestStateError: pready called twice"
                in out)
        assert "VIOLATIONS" in out

    def test_check_json_output(self, capsys):
        code = main(["check", str(FIXTURES / "leaked_request.py"),
                     "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert [f["rule"] for f in payload["findings"]] == ["FIN001"]

    def test_check_disable_silences_rule(self, capsys):
        code = main(["check", str(FIXTURES / "leaked_request.py"),
                     "--disable", "FIN001"])
        assert code == 0
        capsys.readouterr()

    def test_lint_missing_path_exits_two(self, capsys):
        code = main(["lint", "no/such/dir"])
        assert code == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_check_missing_program_exits_two(self, capsys):
        code = main(["check", "no/such/program.py"])
        assert code == 2
        assert "no such program file" in capsys.readouterr().err

    def test_check_bad_rank_count_exits_two(self, capsys):
        code = main(["check", str(FIXTURES / "clean.py"), "--nranks", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: nranks must be >= 1, got 0\n"
        assert captured.out == ""

    def test_check_python_error_is_a_runtime_error(self, capsys, tmp_path):
        program = tmp_path / "typo.py"
        program.write_text("def program(ctx):\n"
                           "    yield from ctx.elapse(0.0)\n"
                           "    return ctx.nope\n")
        assert main(["check", str(program)]) == 1
        captured = capsys.readouterr()
        assert ("runtime error: AttributeError: 'RankContext' object has "
                "no attribute 'nope'") in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("argv", [
        ["lint", str(FIXTURES / "static_clean.py"), "--disable", "SIM999"],
        ["check", str(FIXTURES / "clean.py"), "--disable", "SIM110"],
    ], ids=["lint", "check"])
    def test_unknown_disabled_rule_exits_two(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown rule id {argv[-1]}\n"
        assert captured.out == ""

    def test_check_unknown_cluster_kwarg_exits_two(self, capsys, tmp_path):
        program = tmp_path / "bogus.py"
        program.write_text((FIXTURES / "clean.py").read_text()
                           + "\nCLUSTER_KWARGS = {\"bogus\": 1}\n")
        assert main(["check", str(program)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid cluster arguments: ")
        assert "'bogus'" in captured.err
        assert captured.out == ""


_TRACE_ARGS = ["--message-bytes", "4096", "--partitions", "2",
               "--compute-ms", "0.1", "--iterations", "2"]


class TestTraceCommands:
    def test_trace_export_jsonl_to_stdout(self, capsys):
        code = main(["trace", "export", *_TRACE_ARGS,
                     "--kinds", "part.pready,part.arrived"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert {p["kind"] for p in parsed} == {"part.pready",
                                               "part.arrived"}
        assert all("t" in p and "rank" in p for p in parsed)

    def test_trace_export_chrome_to_file(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code = main(["trace", "export", *_TRACE_ARGS,
                     "--format", "chrome", "--kinds", "part.*,bench.*",
                     "-o", str(out)])
        assert code == 0
        assert "stream digest" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert phases == {"M", "i"}

    def test_trace_export_unknown_kind_exits_two(self, capsys):
        code = main(["trace", "export", *_TRACE_ARGS,
                     "--kinds", "part.*,bogus.*"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown event kind" in err and "bogus.*" in err

    def test_report_text(self, capsys):
        code = main(["report", *_TRACE_ARGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "event counts" in out
        assert "event stream digest:" in out

    def test_report_json(self, capsys):
        code = main(["report", *_TRACE_ARGS, "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["event_digest"]) == 64
        assert data["event_counts"]
        assert [r["rank"] for r in data["ranks"]] == [0, 1]
        assert all(r["events_observed"] > 0 for r in data["ranks"])

    def test_report_unknown_kind_exits_two(self, capsys):
        code = main(["report", *_TRACE_ARGS, "--kinds", "nope"])
        assert code == 2
        assert "unknown event kind" in capsys.readouterr().err


class TestPoolFlags:
    def test_pool_flag_is_gone(self, capsys):
        # jobs > 1 always runs on the kept shared pool.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--pool", "keep"])
        capsys.readouterr()

    def test_invalid_jobs_raises_not_falls_back(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            main(["sweep", "--sizes", "1024", "--counts", "1",
                  "--jobs", "0"])

    def test_sweep_on_kept_pool_reports_pool_counters(self, capsys):
        from repro.core.pool import shutdown_shared_pool
        argv = ["sweep", "--sizes", "1024,4096", "--counts", "1,2",
                "--jobs", "2", "--iterations", "1", "--metric", "overhead"]
        shutdown_shared_pool()
        try:
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            second = capsys.readouterr().out
        finally:
            shutdown_shared_pool()
        # The second sweep reuses the first one's warm workers and
        # computes the same table; the provenance line carries the pool
        # counters.
        assert first.split("sweep engine:")[0] == \
            second.split("sweep engine:")[0]
        assert "4 warm" in second
        assert "0 warm" in first        # the first sweep booted the pool
