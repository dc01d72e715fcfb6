"""The runtime needs no numpy: the same runs, bit for bit, without it.

A subprocess whose ``sys.meta_path`` refuses ``import numpy`` imports
every front end (suite, sweep engine, pool, analytic model, patterns,
proxy, service, CLI) and repeats :func:`observe`: one trial per noise
model and one noisy motif run.  Its event digests and float values must
equal the same runs made in this process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FRONT_ENDS = ("repro.core.suite", "repro.core.parallel", "repro.core.pool",
              "repro.analytic", "repro.patterns", "repro.proxy",
              "repro.service", "repro.cli")

_CHILD = f"""
import importlib, json, sys

class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked")
        return None

sys.meta_path.insert(0, _NoNumpy())
try:
    import numpy  # noqa: F401
except ImportError:
    pass
else:
    raise SystemExit("the numpy blocker did not block")
for name in {FRONT_ENDS!r}:
    importlib.import_module(name)
from tests.test_no_numpy import observe
out = observe()
assert not any(m == "numpy" or m.startswith("numpy.") for m in sys.modules)
print(json.dumps(out))
"""


def observe() -> dict:
    """Digests and ``float.hex`` values of one run per noise model."""
    from repro.core import PtpBenchmarkConfig
    from repro.core.runner import run_ptp_benchmark
    from repro.noise import NOISE_MODELS, UniformNoise, noise_model_from_name
    from repro.patterns import CommMode, PatternConfig, run_motif

    out = {}
    for name in sorted(NOISE_MODELS):
        result = run_ptp_benchmark(PtpBenchmarkConfig(
            message_bytes=65536, partitions=8, compute_seconds=1e-3,
            iterations=3, warmup=1, seed=7,
            noise=noise_model_from_name(name)))
        summary = result.overhead
        out[name] = [result.event_digest, summary.mean.hex(),
                     summary.median.hex(), summary.std.hex(),
                     result.perceived_bandwidth.mean.hex()]
    motif = run_motif("halo3d", PatternConfig(
        mode=CommMode.PARTITIONED, threads=8, message_bytes=65536,
        compute_seconds=1e-3, noise=UniformNoise(4.0), steps=2,
        iterations=2, warmup=1, seed=5))
    out["halo3d"] = [e.hex() for e in motif.elapsed]
    return out


def test_runs_without_numpy_match_runs_in_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    proc = subprocess.run([sys.executable, "-c", _CHILD], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert set(child) == {"none", "single", "uniform", "gaussian",
                          "halo3d"}
    assert child == observe()
