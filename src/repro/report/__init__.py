"""The reproduction harness: regenerate every table and figure of the paper.

Each experiment module exposes ``TITLE`` and ``tables() -> list of
(title, headers, rows)``.  The benchmark suite (`benchmarks/`) asserts on
these rows under pytest-benchmark; this package also works standalone:

.. code-block:: console

   python -m repro.report             # everything
   python -m repro.report table1      # one experiment
   python -m repro.report --list      # what's available
"""

from __future__ import annotations

from typing import Callable

from ..analysis import render_table
from . import (
    ablations,
    architectures,
    validation,
    figures,
    section6,
    table1,
    table2,
    table3,
    table4,
)

__all__ = ["EXPERIMENTS", "run", "run_all", "run_captured",
           "run_captured_traced", "run_counted"]

#: Registry of experiment name -> module.
EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "figures": figures,
    "section6": section6,
    "ablations": ablations,
    "architectures": architectures,
    "validation": validation,
}


def run(name: str, out: Callable[[str], None] = print) -> list[tuple]:
    """Generate and print one experiment's tables; returns them."""
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    produced = EXPERIMENTS[name].tables()
    for title, headers, rows in produced:
        render_table(title, headers, rows, out=out)
    return produced


def run_all(out: Callable[[str], None] = print) -> dict[str, list[tuple]]:
    """Generate and print every experiment; returns them keyed by name."""
    return {name: run(name, out=out) for name in EXPERIMENTS}


def run_captured(name: str) -> str:
    """Generate one experiment, returning its rendered tables as a string.

    The worker entry point of ``python -m repro.report --jobs N``:
    experiments run in separate processes, and the parent prints the
    captured output in the requested order, so the rendered text is
    byte-identical to a serial run.
    """
    lines: list[str] = []
    run(name, out=lines.append)
    return "\n".join(lines)


def run_captured_traced(name: str) -> tuple[str, list[dict]]:
    """Like :func:`run_captured`, recording the run as a span forest.

    The worker entry point of ``python -m repro.report --trace PATH``: a
    local tracer wraps the experiment in one ``experiment`` span (simulated
    totals derived from the driver spans beneath it), and the serialized
    forest rides back to the parent alongside the rendered text.
    """
    from ..trace.tracer import Tracer

    lines: list[str] = []
    tracer = Tracer(name)
    with tracer:
        with tracer.span(name, category="experiment"):
            run(name, out=lines.append)
    return "\n".join(lines), tracer.to_dicts()


def run_counted(worker: Callable[[str], object],
                name: str) -> tuple[object, dict, dict]:
    """``worker(name)`` plus the host counters that run added.

    Returns ``(result, counters, wall_phases)``: the increments of every
    registry counter and the per-phase wall seconds the run added.  The
    worker wrapper of ``python -m repro.report``: with ``--jobs N`` the
    experiments count in worker processes, so each returns its own
    deltas for the parent to sum for ``-v`` (``functools.partial(
    run_counted, run_captured)`` pickles like the bare worker).
    """
    from ..machines.metrics import global_wall_phases
    from ..trace.registry import REGISTRY

    counters0 = REGISTRY.counter_values()
    wall0 = global_wall_phases()
    result = worker(name)
    return result, _increments(counters0, REGISTRY.counter_values()), \
        _increments(wall0, global_wall_phases())


def _increments(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}
