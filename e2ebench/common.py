"""Shared plumbing: paths, scratch space, set-up timing, result records."""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

#: The checkout root (this file lives in ``<root>/e2ebench``).
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches and daemon logs, one directory per run so
#: that concurrent runs in one checkout cannot delete each other's caches;
#: removed when the run ends.
WORK = ROOT / ".e2ebench_work" / f"run-{os.getpid()}"
PINS = pathlib.Path(__file__).resolve().parent / "pins.json"

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 5


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_dir(name: str) -> pathlib.Path:
    """An empty directory under the scratch space."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def import_seconds(modules: Iterable[str]) -> float:
    """Wall time for a fresh interpreter to import ``modules`` and exit."""
    code = "import " + ", ".join(modules)
    start = time.perf_counter()
    # No timeout: with one, the wait polls in sleeps of up to 50 ms,
    # which would quantize the measurement.
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def fold(lines: Iterable[str]) -> str:
    """SHA-256 over newline-terminated lines."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any reaped child."""
    import resource
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def dir_bytes(path: pathlib.Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class RunRecord:
    """What one workload run measured and checked."""

    setup_s: List[float] = field(default_factory=list)
    #: Wall seconds of each timed pass.
    passes: List[float] = field(default_factory=list)
    #: Per pass, the latency in seconds of each operation (figure call,
    #: series call, or request); a failed request counts at its timeout.
    ops: List[List[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Human-readable notes on failed checks.
    problems: List[str] = field(default_factory=list)
    #: Extra named figures printed (not part of the JSON result).
    extras: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics and report text (traced runs only).
    layers: Optional[Dict[str, float]] = None
    layer_report: str = ""

    def start_pass(self) -> None:
        """Open the operation list of a new pass."""
        self.ops.append([])

    def op(self, seconds: float) -> None:
        """Record one operation's latency in the current pass."""
        self.ops[-1].append(seconds)

    def fail(self, problem: str, count: int = 1) -> None:
        """Count ``count`` failed operations and remember why."""
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def end_to_end(self) -> Dict[str, float]:
        """The end-to-end metrics, named as in ``BENCHMARK.json``.

        Latency percentiles are taken per pass.  Per-pass values are
        averaged, not their median taken: the host this was sized on
        switches between a fast and a slow speed every few seconds (the
        slow one up to 1.75 times slower), and a median over passes jumps
        to whichever speed held for most of the run, where the mean moves
        only in proportion.
        """
        passes = [ops for ops in self.ops if ops]
        return {
            "setup_s": statistics.median(self.setup_s),
            "wall_s": statistics.mean(self.passes),
            "peak_rss_mb": peak_rss_mb(),
            "op_p50_ms": 1e3 * statistics.mean(
                percentile(ops, 50) for ops in passes),
            "op_p99_ms": 1e3 * statistics.mean(
                percentile(ops, 99) for ops in passes),
        }
