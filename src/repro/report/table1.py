"""Table 1 generator — data movement operation times (Section 2.6).

See :mod:`repro.report` for the harness protocol.
"""

from __future__ import annotations

import numpy as np

from ..analysis import polylog_fit, power_fit
from ..machines.machine import hypercube_machine, mesh_machine
from ..machines.routing import randomized_sort_rounds
from ..ops import (
    bitonic_merge,
    bitonic_sort,
    broadcast,
    interval_locate,
    parallel_prefix,
    semigroup,
)

TITLE = "Table 1: data movement operations"

SIZES = [64, 256, 1024, 4096]

OPS = ["semigroup", "broadcast", "prefix", "merge", "sort", "grouping"]


def run_op(machine, name: str, n: int, rng) -> None:
    """Execute one Table 1 operation of size ``n`` on ``machine``."""
    data = rng.uniform(size=n)
    if name == "semigroup":
        semigroup(machine, data, np.minimum)
    elif name == "broadcast":
        marked = np.zeros(n, dtype=bool)
        marked[n // 3] = True
        broadcast(machine, data, marked)
    elif name == "prefix":
        parallel_prefix(machine, data, np.add)
    elif name == "merge":
        half = np.concatenate([np.sort(data[: n // 2]), np.sort(data[n // 2:])])
        bitonic_merge(machine, half)
    elif name == "sort":
        bitonic_sort(machine, data)
    elif name == "grouping":
        interval_locate(machine, np.sort(data[: n // 2]), data[n // 2:])
    else:
        raise ValueError(f"unknown Table 1 operation {name!r}")


def measure(machine_factory, op: str, sizes=None) -> list[float]:
    """Simulated parallel time of ``op`` across the size sweep."""
    rng = np.random.default_rng(0)
    times = []
    for n in sizes or SIZES:
        machine = machine_factory(n)
        run_op(machine, op, n, rng)
        times.append(machine.metrics.time)
    return times


def row(op: str) -> list:
    """One rendered table row — a pure function of the operation name.

    Module-level (picklable) so the size sweep can fan out over worker
    processes; each call reseeds its own RNG, so the row is identical no
    matter which process builds it.
    """
    mesh_t = measure(mesh_machine, op)
    cube_t = measure(hypercube_machine, op)
    expected = (
        f"{randomized_sort_rounds(SIZES[-1], seed=1):.0f} rounds"
        if op in ("sort", "grouping") else "= deterministic"
    )
    return [
        op,
        f"{mesh_t[-1]:.0f}",
        power_fit(SIZES, mesh_t).describe(),
        f"{cube_t[-1]:.0f}",
        f"(log n)^{polylog_fit(SIZES, cube_t):.2f}",
        expected,
    ]


def rows() -> list[list]:
    return [row(op) for op in OPS]


def tables() -> list[tuple]:
    return [(
        f"Table 1 reproduction (sizes {SIZES[0]}..{SIZES[-1]})",
        ["operation", f"mesh t(n={SIZES[-1]})", "mesh fit",
         f"cube t(n={SIZES[-1]})", "cube fit", "cube expected (randomized)"],
        rows(),
    )]
