"""CLI: argument parsing and end-to-end command output."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.suite import FIGURES

ARCHIVES = Path(__file__).parent.parent / "benchmarks" / "output"
#: A path whose parent is a regular file: no directory can be made there.
UNDER_A_FILE = str(Path(__file__) / "x")


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


class TestHelp:
    """``--help`` on the program and on every sub-command exits 0."""

    @staticmethod
    def _commands():
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        return sorted(sub.choices)

    @pytest.mark.parametrize("argv", [["--help"], ["-h"]], ids=" ".join)
    def test_top_level_help(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        # Fig 8's blurb keeps its literal percent sign.
        assert "% early-bird communication" in out

    def test_every_sub_command_help(self, capsys):
        commands = self._commands()
        assert "fig8" in commands and "serve" in commands
        for argv in [[c, "--help"] for c in commands] + \
                [["trace", "export", "--help"]]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0, argv
        capsys.readouterr()


#: What each sub-command needs besides an unknown option, so that the
#: option is the only thing wrong with its command line.
_CELL = ["--message-bytes", "1024", "--partitions", "4"]
_REQUIRED = {
    "advisor": ["--message-bytes", "1024"],
    "cache": ["info", "--cache-dir", "x"],
    "metrics": _CELL,
    "report": _CELL,
    "trace": ["export", *_CELL],
}


class TestUnknownOption:
    """An unknown option is reported by the chosen sub-command's parser,
    under that command's usage line, with exit code 2."""

    @pytest.mark.parametrize("command", TestHelp._commands())
    def test_is_reported_under_the_sub_command(self, command, capsys):
        argv = [command, *_REQUIRED.get(command, []), "--no-such-option"]
        # ``trace export`` is nested: its own parser answers.
        path = "trace export" if command == "trace" else command
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {path} ")
        assert err.splitlines()[-1] == (
            f"repro {path}: error: unrecognized arguments: "
            f"--no-such-option")

    def test_root_option_keeps_the_root_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--no-such-option", "list"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: repro [-h]")


class TestRemovedFaultSurface:
    """Fault injection is gone: its flag and command are usage errors."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--faults", "drop=0.1", "--sizes", "1024", "--counts",
         "1", "--jobs", "1"],
        ["metrics", "--message-bytes", "1024", "--partitions", "4",
         "--faults", "drop=0.1"],
        ["faults"],
    ], ids=" ".join)
    def test_is_a_usage_error_with_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert "Traceback" not in err


class TestRemovedPlannerSurface:
    """The adaptive trial planner is gone: its flags are usage errors."""

    @pytest.mark.parametrize("command", ["sweep", "fig5"])
    @pytest.mark.parametrize("flag", [
        ["--ci-target", "0.05"],
        ["--ci-min-trials", "3"],
        ["--ci-max-trials", "20"],
    ], ids=lambda flag: flag[0])
    def test_is_one_error_line_with_exit_two(self, command, flag, capsys):
        argv = [command, *flag, "--jobs", "1"]
        if command == "sweep":
            argv += ["--sizes", "1024", "--counts", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert flag[0] in errors[0]
        assert "Traceback" not in err


class TestRemovedImplSurface:
    """One partitioned implementation: ``--impl`` and the duplicate
    ``report --format chrome`` are usage errors."""

    @pytest.mark.parametrize("argv", [
        ["metrics", "--impl", "native"],
        ["sweep", "--impl", "mpipcl", "--sizes", "1024", "--counts", "1",
         "--jobs", "1"],
        ["trace", "export", "--impl", "native"],
        ["report", "--impl", "native"],
        ["report", "--format", "chrome"],
    ], ids=" ".join)
    def test_is_one_usage_line_with_exit_two(self, argv, capsys):
        cell = ["--message-bytes", "1024", "--partitions", "4"]
        if argv[0] != "sweep":
            argv = argv + cell
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert ("--impl" if "--impl" in argv else "chrome") in errors[0]
        assert "Traceback" not in err


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

    def test_metrics_rejects_non_finite_compute(self, capsys):
        # Regression: NaN compute once printed availability -1.338, exit 0;
        # a finite 1e300 ms once overflowed the simulated clock mid-trial.
        for compute_ms, reason in (("nan", "finite"), ("1e300", "2**22")):
            assert main(["metrics", "--message-bytes", "1024",
                         "--partitions", "4",
                         "--compute-ms", compute_ms]) == 2
            assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--sizes", "0", "--counts", "1", "--jobs", "1"],
        ["sweep", "--sizes", "0,16", "--counts", "1", "--jobs", "1"],
        ["sweep", "--sizes", "abc"],
        ["fig4", "--jobs", "0"],
        ["metrics", "--message-bytes", "4096", "--partitions", "8192"],
        ["serve", "--jobs", "0"],
        ["serve", "--quota", "-1"],
        ["serve", "--port", "70000"],
        ["sweep", "--sizes", "64", "--counts", "1", "--jobs", "1",
         "--cache-dir", UNDER_A_FILE],
        ["fig7", "--jobs", "1", "--cache-dir", UNDER_A_FILE],
        ["serve", "--jobs", "1", "--port", "0", "--cache-dir", UNDER_A_FILE],
        ["cache", "clear", "--cache-dir", UNDER_A_FILE],
        ["trace", "export", "--message-bytes", "64", "--partitions", "2",
         "--output", "no/such/dir/t.json"],
    ], ids=" ".join)
    def test_bad_input_is_an_error_line_and_exit_two(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

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
    def test_check_command_is_gone(self, capsys, tmp_path):
        # The dynamic checker and the linter are not commands: each is a
        # usage error (the linter runs as tests/test_analysis_lint.py).
        program = tmp_path / "prog.py"
        program.write_text("def program(ctx):\n    return None\n")
        for command in ("check", "lint"):
            with pytest.raises(SystemExit) as exc:
                main([command, str(program)])
            assert exc.value.code == 2
            assert f"invalid choice: '{command}'" in capsys.readouterr().err


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

    def test_invalid_jobs_raises_not_falls_back(self, capsys):
        assert main(["sweep", "--sizes", "1024", "--counts", "1",
                     "--jobs", "0"]) == 2
        assert "jobs must be >= 1: 0" in capsys.readouterr().err

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
