"""Run one tree's kernel registry for ``scripts/bench_guard.py``.

Usage: ``python scripts/bench_runner.py TREE``.  Loads
``TREE/scripts/bench_guard.py`` by path, so only ``TREE/src`` provides
``repro``, and uses nothing of it but ``KERNELS``, ``warm_up`` and
``teardown`` — the interface every tree the guard compares against
exports.

It warm-up-checks every kernel, then writes one JSON line::

    {"kernels": {name: repr(expected)}, "failed": {name: reason},
     "seconds": {name: seconds of one call after its warm-up}}

and answers each request line ``[name, n]`` on stdin with the wall
seconds of ``n`` back-to-back calls of that kernel, one JSON number per
line.  End of input tears the fixtures down and exits.
"""

import importlib.util
import json
import pathlib
import sys
import time

del sys.path[0]                 # this script's directory is not the tree


def main(tree: str) -> None:
    path = pathlib.Path(tree).resolve() / "scripts" / "bench_guard.py"
    spec = importlib.util.spec_from_file_location("tree_bench_guard", path)
    registry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(registry)
    import repro
    source = pathlib.Path(repro.__file__).resolve()
    if path.parent.parent / "src" not in source.parents:
        raise SystemExit(f"repro loaded from {source}, not from {tree}")
    # The protocol owns stdout; anything a kernel prints goes to stderr.
    out, sys.stdout = sys.stdout, sys.stderr
    kernels, failed, seconds = {}, {}, {}
    try:
        for name, (fn, expected) in registry.KERNELS.items():
            kernels[name] = repr(expected)
            try:
                registry.warm_up(name)
            except Exception as exc:
                failed[name] = f"{type(exc).__name__}: {exc}"
                continue
            start = time.perf_counter()
            fn()
            seconds[name] = time.perf_counter() - start
        print(json.dumps({"kernels": kernels, "failed": failed,
                          "seconds": seconds}), file=out, flush=True)
        for line in sys.stdin:
            name, n = json.loads(line)
            fn = registry.KERNELS[name][0]
            start = time.perf_counter()
            for _ in range(n):
                fn()
            print(json.dumps(time.perf_counter() - start), file=out,
                  flush=True)
    finally:
        registry.teardown()


if __name__ == "__main__":
    main(sys.argv[1])
