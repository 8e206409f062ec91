"""The one report render of the benchmark harness.

Every table's title, headers and rows are written in one place,
:mod:`repro.report`.  A bench's report test asserts the shape of those
rows; :func:`rendered` produces them once per pytest session and first
checks the rendered text byte for byte against
``benchmarks/perf/golden/<name>.txt``, the text the repository benchmark
gates on.  Nothing here writes a file.
"""

from __future__ import annotations

import functools
import pathlib

from repro.report import EXPERIMENTS, run

GOLDEN_DIR = pathlib.Path(__file__).parent / "perf" / "golden"


@functools.lru_cache(maxsize=len(EXPERIMENTS))
def rendered(name: str) -> list[tuple]:
    """``repro.report.run(name)``'s ``(title, headers, rows)`` tables,
    after asserting that their text equals the golden file."""
    lines: list[str] = []
    tables = run(name, out=lines.append)
    golden = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert "\n".join(lines) + "\n" == golden, \
        f"{name}: rendered text differs from {GOLDEN_DIR.name}/{name}.txt"
    return tables

