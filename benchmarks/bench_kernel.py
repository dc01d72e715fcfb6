"""Kernel micro-benchmarks under pytest-benchmark.

Not a paper figure: these guard the substrate's own performance, since
every figure reproduction pays the kernel's event-dispatch cost.  The
kernels and the value each must return are defined once, in the
registry of ``scripts/bench_guard.py``; this module times every
registry entry with pytest-benchmark's multi-round timing, while the
guard script times the same entries against a baseline commit.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "scripts"))
import bench_guard  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def registry():
    """Stop the kernels' daemon and pools, remove their temp dirs."""
    yield
    bench_guard.teardown()


@pytest.mark.parametrize("name", list(bench_guard.KERNELS))
def test_kernel(benchmark, name):
    kernel = bench_guard.warm_up(name)
    bench_guard.check(name, benchmark(kernel))
