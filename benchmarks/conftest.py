"""Shared infrastructure for the figure-reproduction benches.

Every bench regenerates one figure of the paper: it runs the experiment
through the public API, prints the figure's series as a text table (the
"same rows the paper reports"), archives the table under
``benchmarks/output/``, and asserts the paper's shape on it.

Set ``REPRO_FULL=1`` to run the paper's full grids instead of the quick
ones (minutes instead of seconds).
"""

from __future__ import annotations

import os
import pathlib

#: Where rendered tables are archived for EXPERIMENTS.md.
OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def full_mode() -> bool:
    """True when the full paper grids were requested."""
    return os.environ.get("REPRO_FULL", "0") == "1"


def emit(name: str, text: str) -> None:
    """Print a figure table and archive it."""
    banner = f"\n=== {name} {'(full)' if full_mode() else '(quick)'} ==="
    print(banner)
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")

