"""Command-line interface: regenerate figures and query the advisor.

Usage::

    python -m repro list
    python -m repro fig4 [--full] [--jobs 4] [--cache-dir .repro-cache]
    python -m repro sweep --sizes 65536,1048576 --counts 1,8 --jobs 4 \\
        --cache-dir .repro-cache --metric overhead
    python -m repro cache info --cache-dir .repro-cache
    python -m repro metrics --message-bytes 1048576 --partitions 8 \\
        --compute-ms 10 --noise uniform --noise-percent 4
    python -m repro advisor --message-bytes 1048576 --compute-ms 10 \\
        --noise single --noise-percent 4
    python -m repro lint src/repro benchmarks examples
    python -m repro check path/to/program.py
    python -m repro faults --spec 'drop=0.05,deadline=30'
    python -m repro metrics --message-bytes 65536 --partitions 8 \\
        --faults 'drop=0.02,stall=0.5/0.05'
    python -m repro trace export --message-bytes 1048576 --partitions 8 \\
        --format chrome --kinds 'part.*,bench.*' -o trace.json
    python -m repro report --message-bytes 1048576 --partitions 8

Tables match the ``benchmarks/`` harness output; the CLI exists so the
suite is usable without pytest, the way the paper's artifact is driven
from a shell.  ``lint`` and ``check`` expose the
:mod:`repro.analysis` correctness analyzer (exit code 1 on findings).
``trace export`` and ``report`` observe one instrumented trial through
:mod:`repro.obs` sinks.  Bad input to any command (a
:class:`~repro.errors.ConfigurationError`) prints ``error: <reason>`` on
stderr and exits 2.
The point-to-point figures and ``sweep`` run on the parallel engine
(:mod:`repro.core.parallel`): ``--jobs`` fans grid cells out over worker
processes — one warm pool (:mod:`repro.core.pool`) reused across every
sweep the process runs — and ``--cache-dir`` reuses every
already-computed cell, with results bit-identical to a serial, uncached
run (see ``docs/performance.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Dict, List, Optional

from .core import (ANALYTIC_MODES, CACHE_SCHEMA_VERSION, METRIC_NAMES,
                   PtpBenchmarkConfig, ResultCache, SweepStats, ascii_table,
                   fault_table, metric_table, provenance_line,
                   recommend_partitions, run_ptp_benchmark, sweep_ptp)
from .core.suite import FIGURES, figure_sweeps
from .errors import ConfigurationError
from .faults import parse_fault_spec
from .metrics import AdaptiveTrialPlanner
from .noise import NOISE_MODELS, noise_model_from_name

__all__ = ["main", "build_parser"]


def _engine_options(args) -> Dict:
    """The engine kwargs a ptp figure driver understands.

    ``jobs``/``cache`` as before, plus ``analytic`` dispatch and — when
    ``--ci-target`` is given — an :class:`AdaptiveTrialPlanner` for the
    nondeterministic cells.  ``--jobs`` above 1 runs on the process-wide
    shared pool, whose warm workers survive from sweep to sweep (see
    :func:`~repro.core.parallel.run_cells`).  An invalid ``--jobs``
    (anything below 1) raises :class:`~repro.errors.ConfigurationError`
    instead of silently falling back to one worker.
    """
    planner = None
    if args.ci_target is not None:
        planner = AdaptiveTrialPlanner(
            ci_target=args.ci_target, min_trials=args.ci_min_trials,
            max_trials=args.ci_max_trials)
    jobs = args.jobs
    if jobs is None:  # --jobs default when os.cpu_count() is unknown
        jobs = os.cpu_count() or 1
    return {
        "jobs": jobs,
        "cache": ResultCache(args.cache_dir) if args.cache_dir else None,
        "analytic": args.analytic,
        "planner": planner,
    }


def _engine_footer(sweeps, cache: Optional[ResultCache]) -> str:
    """The sweep report's provenance line: every panel's counters summed."""
    stats = [s.stats for s in sweeps if s.stats is not None]
    if not stats:
        return ""
    total = SweepStats(jobs=stats[0].jobs)
    for one in stats:
        total.absorb(one)
    line = f"sweep engine: {total.describe()}"
    if cache is not None:
        line += f"; cache at {cache.root} now holds {len(cache)} entries"
    return "\n\n" + line


def _cmd_figure(args) -> str:
    """One figure of :data:`~repro.core.suite.FIGURES`: its tables, plus
    the engine footer when it ran on the sweep engine."""
    figure = FIGURES[args.command]
    engine = _engine_options(args) if figure.on_engine else {}
    output = figure.driver(quick=not args.full, **engine)
    return figure.render(output) + \
        _engine_footer(figure_sweeps(output), engine.get("cache"))


def _cmd_list(args) -> str:
    rows = [[name, figure.blurb] for name, figure in FIGURES.items()]
    return ascii_table(["experiment", "reproduces"], rows,
                       title="available figure reproductions")


def _benchmark_config(args, **cell) -> PtpBenchmarkConfig:
    """Benchmark config from the shared config flags.

    ``cell`` gives ``message_bytes`` and ``partitions``; without it they
    come from the one-cell ``--message-bytes``/``--partitions`` flags.
    """
    cell = cell or {"message_bytes": args.message_bytes,
                    "partitions": args.partitions}
    return PtpBenchmarkConfig(
        **cell,
        compute_seconds=args.compute_ms / 1e3,
        noise=noise_model_from_name(args.noise, args.noise_percent),
        cache=args.cache,
        impl=args.impl,
        iterations=args.iterations,
        seed=args.seed,
        faults=parse_fault_spec(args.faults) if args.faults else None,
    )


def _cmd_metrics(args) -> str:
    result = run_ptp_benchmark(_benchmark_config(args))
    if result.fault_outcome is not None and not result.n_samples:
        return (f"{result.config.label()}\n"
                f"no measured samples: {result.fault_outcome.describe()}")
    rows = [
        ["overhead (eq.1)", f"{result.overhead.mean:.2f}x"],
        ["perceived bandwidth (eq.2)",
         f"{result.perceived_bandwidth.mean / 1e9:.2f} GB/s"],
        ["application availability (eq.3)",
         f"{result.application_availability.mean:.3f}"],
        ["early-bird communication (eq.4)",
         f"{result.early_bird_fraction.mean * 100:.1f}%"],
    ]
    table = ascii_table(["metric", "pruned mean"], rows,
                        title=result.config.label())
    if result.fault_outcome is not None:
        table += f"\n\nfault outcome: {result.fault_outcome.describe()}"
    return table


def _cmd_advisor(args) -> str:
    rec = recommend_partitions(
        message_bytes=args.message_bytes,
        compute_seconds=args.compute_ms / 1e3,
        noise=noise_model_from_name(args.noise, args.noise_percent),
        objective=args.objective,
        base_config=PtpBenchmarkConfig(
            message_bytes=64, partitions=1,
            iterations=args.iterations, seed=args.seed),
    )
    lines = [rec.explain(), "", "candidate scores:"]
    for n, score in sorted(rec.scores.items()):
        marker = " <-- recommended" if n == rec.partitions else ""
        lines.append(f"  n={n:3d}: {score:8.3f}{marker}")
    return "\n".join(lines)


def _cmd_faults(args) -> str:
    """Show a parsed fault plan's contents, or the spec grammar."""
    if not args.spec:
        return parse_fault_spec.GRAMMAR.strip()
    plan = parse_fault_spec(args.spec)
    rows = [
        ["drop probability", f"{plan.drop_probability:g}"],
        ["degrade windows",
         "; ".join(f"[{w.start:g}s, {w.end:g}s) bw x{w.bandwidth_scale:g} "
                   f"lat x{w.latency_scale:g}"
                   for w in plan.degrade_windows) or "-"],
        ["NIC stall", (f"{plan.stall_duration:g}s every "
                       f"{plan.stall_period:g}s"
                       if plan.stall_period else "-")],
        ["rank slowdown",
         "; ".join(f"rank {r} x{f:g}" for r, f in plan.rank_slowdown)
         or "-"],
        ["fail-stop", (f"rank {plan.fail_stop.rank} at "
                       f"{plan.fail_stop.time:g}s"
                       if plan.fail_stop else "-")],
        ["deadline", f"{plan.deadline:g}s" if plan.deadline else "-"],
        ["retry: ack timeout", f"{plan.retry.ack_timeout:g}s"],
        ["retry: backoff factor", f"{plan.retry.backoff_factor:g}"],
        ["retry: max backoff", f"{plan.retry.max_backoff:g}s"],
        ["retry: max retries", str(plan.retry.max_retries)],
    ]
    return ascii_table(["knob", "value"], rows,
                       title=f"fault plan: {plan.describe()}")


def _parse_int_list(text: str, what: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(f"{what} must be comma-separated ints, "
                                 f"got {text!r}")
    if not values:
        raise ConfigurationError(f"{what} must name at least one value")
    return values


def _cmd_sweep(args) -> str:
    """A figure-shaped grid sweep with full engine control."""
    sizes = _parse_int_list(args.sizes, "--sizes")
    counts = _parse_int_list(args.counts, "--counts")
    base = _benchmark_config(args, message_bytes=max(sizes), partitions=1)
    engine = _engine_options(args)
    cache = engine["cache"]
    sweep = sweep_ptp(base, sizes, counts, **engine)
    metrics = METRIC_NAMES if args.metric == "all" else (args.metric,)
    parts = [metric_table(sweep, metric, title=f"sweep — {metric}")
             for metric in metrics]
    faults_summary = fault_table(sweep)
    if faults_summary is not None:
        parts.append(faults_summary)
    parts.append(f"sweep engine: {sweep.stats.describe()}")
    provenance = provenance_line(sweep)
    if provenance is not None:
        parts.append(provenance)
    if cache is not None:
        parts.append(cache.describe())
    return "\n\n".join(parts)


def _cmd_cache(args) -> str:
    """Inspect or clear a content-addressed cache directory."""
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        return f"cleared {removed} cached result(s) from {cache.root}"
    stats = cache.stats()
    return (f"cache at {cache.root}: {stats['entries']} entry(ies) on "
            f"disk, schema v{CACHE_SCHEMA_VERSION}")


def _findings_json(findings) -> str:
    return json.dumps({
        "ok": not findings,
        "count": len(findings),
        "findings": [f.to_dict() for f in findings],
    }, indent=2)


def _reject_unknown_rules(ids) -> None:
    """Raise naming the ``--disable`` ids no rule has."""
    from .analysis.rules import known_rule_ids
    known = set(known_rule_ids())
    unknown = [rule_id for rule_id in ids if rule_id not in known]
    if unknown:
        raise ConfigurationError(f"unknown rule id {', '.join(unknown)}")


def _cmd_lint(args) -> int:
    from .analysis import format_findings, lint_paths
    from .analysis.findings import sarif_json
    _reject_unknown_rules(args.disable)
    findings = lint_paths(args.paths, disabled=args.disable)
    if args.format == "sarif":
        output = sarif_json(findings)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as stream:
                stream.write(output)
            print(f"wrote SARIF log with {len(findings)} result(s) to "
                  f"{args.output}")
        else:
            print(output, end="")
    elif args.format == "json":
        print(_findings_json(findings))
    elif findings:
        print(format_findings(findings))
        print(f"{len(findings)} finding(s)")
    else:
        print("clean: no findings")
    return 1 if findings else 0


def _resolve_kinds(kinds_arg: str):
    """Parse a ``--kinds`` value into patterns; raises on unknown kinds."""
    from .obs import SCHEMA
    patterns = tuple(p.strip() for p in kinds_arg.split(",") if p.strip())
    if not patterns:
        patterns = ("*",)
    SCHEMA.resolve(patterns)
    return patterns


def _cmd_trace(args) -> int:
    from .core import run_ptp_trial
    from .obs import MemorySink, write_chrome_trace, write_jsonl
    patterns = _resolve_kinds(args.kinds)
    mem = MemorySink()
    result, _ = run_ptp_trial(_benchmark_config(args),
                              sinks=[(mem, patterns)])
    writer = write_chrome_trace if args.format == "chrome" else write_jsonl
    if args.output:
        with open(args.output, "w") as stream:
            n = writer(mem, stream)
        print(f"wrote {n} {args.format} event(s) to {args.output} "
              f"(stream digest {result.event_digest[:12]}…)")
    else:
        writer(mem, sys.stdout)
    return 0


def _cmd_report(args) -> int:
    from .core import run_ptp_trial
    from .mpi.diagnostics import cluster_report, collect_diagnostics
    from .obs import CounterSink, MemorySink, write_chrome_trace
    patterns = _resolve_kinds(args.kinds)
    counters = CounterSink()
    sinks = [(counters, patterns)]
    mem = None
    if args.format == "chrome":
        mem = MemorySink()
        sinks.append((mem, patterns))
    result, cluster = run_ptp_trial(_benchmark_config(args), sinks=sinks)
    if args.format == "chrome":
        write_chrome_trace(mem, sys.stdout)
        return 0
    if args.format == "json":
        diags = collect_diagnostics(cluster, counters=counters)
        print(json.dumps({
            "config": result.config.label(),
            "event_digest": result.event_digest,
            "fault_outcome": (result.fault_outcome.to_dict()
                              if result.fault_outcome is not None
                              else None),
            "event_counts": [
                {"kind": kind, "rank": rank, "count": n}
                for kind, rank, n in counters.rows()
            ],
            "ranks": [
                {"rank": d.rank,
                 "lock_acquisitions": d.lock_acquisitions,
                 "nic_messages": d.nic_messages,
                 "nic_bytes": d.nic_bytes,
                 "cache_hit_ratio": d.cache_hit_ratio,
                 "events_observed": d.events_observed}
                for d in diags
            ],
        }, indent=2))
        return 0
    print(cluster_report(cluster, counters=counters))
    if result.fault_outcome is not None:
        print(f"\nfault outcome: {result.fault_outcome.describe()}")
    print(f"\nevent stream digest: {result.event_digest}")
    return 0


def _cmd_check(args) -> int:
    from .analysis.checker import check_file
    _reject_unknown_rules(args.disable)
    # A cluster the program cannot run on (nranks < 1, a CLUSTER_KWARGS
    # key or value it rejects) raises: a bad input, not a violation.
    report = check_file(args.program, disabled=args.disable,
                        nranks=args.nranks)
    print(report.to_json() if args.format == "json" else report.format())
    return 0 if report.ok else 1


def _add_compute_args(parser: argparse.ArgumentParser,
                      noise: str) -> None:
    """Attach the compute amount and its noise model."""
    parser.add_argument("--compute-ms", type=float, default=10.0)
    parser.add_argument("--noise", default=noise,
                        choices=list(NOISE_MODELS))
    parser.add_argument("--noise-percent", type=float, default=None,
                        help="noise magnitude in percent (default: 0 for "
                             "'none', 4 for noisy models)")


def _add_config_args(parser: argparse.ArgumentParser,
                     iterations: int) -> None:
    """Attach the benchmark-config flags read by :func:`_benchmark_config`
    (all but the one-cell size and partition count)."""
    _add_compute_args(parser, noise="none")
    parser.add_argument("--cache", default="hot", choices=["hot", "cold"])
    parser.add_argument("--impl", default="mpipcl",
                        choices=["mpipcl", "native"])
    parser.add_argument("--iterations", type=int, default=iterations)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault-injection plan, e.g. "
                             "'drop=0.05,deadline=30' "
                             "(see 'repro faults' for the grammar)")


def _add_measurement_args(parser: argparse.ArgumentParser,
                          iterations: int) -> None:
    """Attach the one-cell measurement flags shared by single-run commands."""
    parser.add_argument("--message-bytes", type=int, required=True)
    parser.add_argument("--partitions", type=int, required=True)
    _add_config_args(parser, iterations)


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Attach the parallel-engine flags shared by sweep-backed commands."""
    parser.add_argument(
        "--jobs", type=int, default=os.cpu_count(), metavar="N",
        help="worker processes for grid cells (default: all cores); "
             "results are bit-identical to --jobs 1")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache: cells whose config is "
             "unchanged are reloaded instead of re-simulated")
    parser.add_argument(
        "--analytic", default="off", choices=list(ANALYTIC_MODES),
        help="closed-form fast path for deterministic cells: 'auto' "
             "answers eligible cells without simulating (within the "
             "documented tolerance), 'only' refuses ineligible cells")
    parser.add_argument(
        "--ci-target", type=float, default=None, metavar="REL",
        help="adaptive trials: stop each noisy/faulty cell once the "
             "pruned-mean CI half-width is within REL (e.g. 0.05) of "
             "the mean, instead of a fixed trial count")
    parser.add_argument(
        "--ci-min-trials", type=int, default=3, metavar="N",
        help="adaptive trials: lower bound per cell (default 3)")
    parser.add_argument(
        "--ci-max-trials", type=int, default=20, metavar="N",
        help="adaptive trials: upper bound per cell (default 20)")


def _cmd_serve(args) -> int:
    """Run the benchmark daemon in the foreground until interrupted.

    One process holds the warm pool and the shared cache; clients talk
    HTTP/JSON (see ``docs/service.md``).  The bound address is printed
    on stdout before serving — with ``--port 0`` that line is how a
    supervisor (or ``scripts/load_test.py --boot``) learns the port.
    With ``--jobs`` above 1 the pool's workers are forked before any
    thread starts.
    """
    # Imported here: the service package is only needed by this command.
    from .core.pool import shared_pool
    from .service import SweepScheduler, SweepService

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1: {jobs}")
    if args.quota < 0:
        raise ConfigurationError(f"--quota must be >= 0: {args.quota}")
    if not 0 <= args.port <= 65535:
        raise ConfigurationError(
            f"--port must be in 0-65535: {args.port}")
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    pool = None
    if jobs > 1:
        pool = shared_pool(jobs)
        pool.start()
    scheduler = SweepScheduler(
        pool=pool, cache=cache, jobs=jobs, analytic=args.analytic,
        quota=args.quota, batch_window=args.batch_window)
    service = SweepService(scheduler, host=args.host, port=args.port,
                           request_timeout=args.request_timeout,
                           verbose=args.verbose)
    host, port = service.address
    print(f"repro service: http://{host}:{port} "
          f"(jobs={jobs}, quota={args.quota}, "
          f"cache={'on' if cache is not None else 'off'})", flush=True)
    # SIGTERM (how supervisors and load_test.py stop the daemon) takes
    # the SIGINT path, so exit shuts the pool's workers down instead of
    # orphaning them.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MPI Partitioned micro-benchmark suite "
                    "(ICPP'22 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the figure reproductions")

    for name, figure in FIGURES.items():
        p = sub.add_parser(name, help=figure.blurb)
        p.add_argument("--full", action="store_true",
                       help="run the paper's full grid (slow)")
        if figure.on_engine:
            _add_engine_args(p)

    sw = sub.add_parser(
        "sweep", help="run a figure-shaped grid sweep (parallel engine)")
    sw.add_argument("--sizes", default="65536,1048576,4194304,16777216",
                    help="comma-separated message sizes in bytes")
    sw.add_argument("--counts", default="1,2,4,8,16,32",
                    help="comma-separated partition counts")
    sw.add_argument("--metric", default="all",
                    choices=["all"] + list(METRIC_NAMES))
    _add_config_args(sw, iterations=3)
    _add_engine_args(sw)

    ca = sub.add_parser(
        "cache",
        help="inspect or clear a result-cache directory")
    ca.add_argument("action", choices=["info", "clear"])
    ca.add_argument("--cache-dir", required=True,
                    help="cache directory to act on")

    m = sub.add_parser("metrics",
                       help="measure one configuration's four metrics")
    _add_measurement_args(m, iterations=5)

    tr = sub.add_parser(
        "trace", help="capture an instrumented run's event stream")
    tr_sub = tr.add_subparsers(dest="action", required=True)
    te = tr_sub.add_parser(
        "export", help="run one configuration and export its events")
    _add_measurement_args(te, iterations=3)
    te.add_argument("--format", default="json",
                    choices=["json", "chrome"],
                    help="json: one JSON object per line; chrome: Chrome "
                         "trace-viewer / Perfetto file")
    te.add_argument("--kinds", default="*", metavar="PATTERNS",
                    help="comma-separated event-kind patterns, e.g. "
                         "'part.*,nic.*' (exit 2 on unknown kinds)")
    te.add_argument("--output", "-o", default=None, metavar="PATH",
                    help="write to PATH instead of stdout")

    rp = sub.add_parser(
        "report", help="per-rank diagnostics + event counters for one run")
    _add_measurement_args(rp, iterations=3)
    rp.add_argument("--format", default="text",
                    choices=["text", "json", "chrome"])
    rp.add_argument("--kinds", default="*", metavar="PATTERNS",
                    help="comma-separated event-kind patterns to count "
                         "(exit 2 on unknown kinds)")

    fa = sub.add_parser(
        "faults", help="inspect a fault-injection spec (or its grammar)")
    fa.add_argument("--spec", default=None, metavar="SPEC",
                    help="fault spec to parse and display; omit to print "
                         "the grammar")

    a = sub.add_parser("advisor", help="recommend a partition count")
    a.add_argument("--message-bytes", type=int, required=True)
    _add_compute_args(a, noise="single")
    a.add_argument("--objective", default="balanced",
                   choices=["availability", "overhead", "balanced"])
    a.add_argument("--iterations", type=int, default=3)
    a.add_argument("--seed", type=int, default=0)

    sv = sub.add_parser(
        "serve",
        help="run the benchmark daemon (HTTP/JSON over the warm pool)")
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: loopback only)")
    sv.add_argument("--port", type=int, default=8642,
                    help="listen port; 0 binds an ephemeral port and "
                         "prints it")
    sv.add_argument(
        "--jobs", type=int, default=os.cpu_count(), metavar="N",
        help="worker processes behind the daemon (default: all cores)")
    sv.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared result cache: a repeated request is a hit "
             "(concurrent identical requests coalesce without one)")
    sv.add_argument(
        "--analytic", default="off", choices=list(ANALYTIC_MODES),
        help="closed-form fast path for deterministic cells")
    sv.add_argument(
        "--quota", type=int, default=16, metavar="N",
        help="per-client in-flight request ceiling; excess requests "
             "are rejected with a 429 (default 16)")
    sv.add_argument(
        "--batch-window", type=float, default=0.005, metavar="SECONDS",
        help="how long a dispatcher waits for more requests before "
             "cutting a batch (default 0.005)")
    sv.add_argument(
        "--request-timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-request wall-clock ceiling before a 504 (default 300)")
    sv.add_argument("--verbose", action="store_true",
                    help="log every HTTP request to stderr")

    lint = sub.add_parser(
        "lint", help="static determinism/sim-API linter (simlint)")
    lint.add_argument("paths", nargs="+",
                      help="files or directories to lint")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"])
    lint.add_argument("--output", default=None, metavar="FILE",
                      help="write SARIF output to FILE instead of stdout")
    lint.add_argument("--disable", action="append", default=[],
                      metavar="RULE", help="rule id to skip "
                      "(repeatable, e.g. --disable SIM103)")

    chk = sub.add_parser(
        "check", help="run a program under the dynamic checker")
    chk.add_argument("program",
                     help="python file defining program(ctx)")
    chk.add_argument("--nranks", type=int, default=None,
                     help="override the program's NRANKS")
    chk.add_argument("--format", default="text",
                     choices=["text", "json"])
    chk.add_argument("--disable", action="append", default=[],
                     metavar="RULE", help="rule id to skip "
                     "(repeatable, e.g. --disable FIN001)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Bad input — a :class:`~repro.errors.ConfigurationError` from any
    command — prints ``error: <reason>`` on stderr and exits 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "list":
        print(_cmd_list(args))
    elif args.command == "sweep":
        print(_cmd_sweep(args))
    elif args.command == "cache":
        print(_cmd_cache(args))
    elif args.command == "metrics":
        print(_cmd_metrics(args))
    elif args.command == "advisor":
        print(_cmd_advisor(args))
    elif args.command == "faults":
        print(_cmd_faults(args))
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "lint":
        return _cmd_lint(args)
    elif args.command == "check":
        return _cmd_check(args)
    elif args.command == "trace":
        return _cmd_trace(args)
    elif args.command == "report":
        return _cmd_report(args)
    else:
        print(_cmd_figure(args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
