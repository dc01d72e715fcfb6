#!/usr/bin/env python3
"""End-to-end benchmark of the repro suite: one workload per run.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload figures-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` profiles the same work and reports the per-layer metrics instead.
Both check every output against ``e2ebench/pins.json`` (or, for the
service, against local runs) and print, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when one failed, and 2 when the repro
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from common import PINS, SRC, WORK  # noqa: E402

WORKLOADS = ("figures-cold", "service-mixed")

#: End-to-end metrics and their units, as declared in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "op_p50_ms": "ms", "op_p99_ms": "ms"}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark: regenerate the paper's figures "
                    "cold and warm, serve a mixed request load")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured seconds (at least one pass runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs for the benchmark's tests")
    parser.add_argument("--pins", type=pathlib.Path, default=PINS,
                        help="pinned output digests to check against")
    parser.add_argument("--record-pins", action="store_true",
                        help="write this run's digests into --pins")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from figures import run_figures_cold
    from layers import PER_LAYER
    from serviceload import run_service_mixed
    runners = {"figures-cold": run_figures_cold,
               "service-mixed": run_service_mixed}
    pins = json.loads(args.pins.read_text()) if args.pins.is_file() else {}
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        rec = runners[args.workload](args, pins)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    if args.record_pins:
        args.pins.write_text(json.dumps(pins, indent=2, sort_keys=True)
                             + "\n")

    print(f"e2ebench {args.workload} seed={args.seed} size={args.size}: "
          f"{len(rec.passes)} pass(es), "
          f"{sum(len(ops) for ops in rec.ops)} operations; pass walls "
          + " ".join(f"{wall:.3f}" for wall in rec.passes[:12]) + " s")
    if args.trace:
        print(rec.layer_report)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        metrics = {name: {"value": rec.layers[name], "unit": units[name]}
                   for name in units}
    else:
        values = rec.end_to_end()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, entry in metrics.items():
            print(f"  {name:<16}{entry['value']:>14.6g} {entry['unit']}")
        for name, value in rec.extras.items():
            print(f"  {name:<16}{value:>14.6g}")
    print(f"  {'failed_frac':<16}{rec.failed / max(rec.attempted, 1):>14.6g}"
          f" ({rec.failed}/{rec.attempted})")
    for problem in rec.problems:
        print(f"  FAILED: {problem}")
    if not rec.attempted:  # nothing ran: that is a failure too
        rec.attempted = rec.failed = 1
    correct = rec.failed == 0
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
