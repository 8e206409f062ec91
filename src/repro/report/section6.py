"""Section 6 generator — native algorithms vs direct PRAM simulation."""

from __future__ import annotations

import numpy as np

from ..analysis import geometric_sizes
from ..baselines.pram import chandran_mount_steps, crcw_round_cost
from ..core.envelope import envelope
from ..core.family import PolynomialFamily
from ..kinetics.polynomial import Polynomial
from ..machines.machine import MachineGroup, hypercube_machine, mesh_machine

TITLE = "Section 6: native vs direct PRAM simulation"

SIZES = geometric_sizes(64, 4096, factor=4)
FAMILY = PolynomialFamily(1)


def curves(n: int, seed: int = 0) -> list[Polynomial]:
    rng = np.random.default_rng(seed)
    return [Polynomial(rng.uniform(-10, 10, 2)) for _ in range(n)]


def native_times(*machine_factories) -> list[list[float]]:
    """Native envelope time per size, one column per factory: each size's
    combine tree is built once and costed on every machine."""
    out = []
    for n in SIZES:
        machines = [mk(n) for mk in machine_factories]
        envelope(MachineGroup(machines), curves(n), FAMILY)
        out.append([m.metrics.time for m in machines])
    return out


def rows(machine_factory, native=None) -> list[list]:
    """Table rows for one network; ``native`` (per-size native times)
    defaults to running the envelope on ``machine_factory`` machines."""
    if native is None:
        native = [t for (t,) in native_times(machine_factory)]
    out = []
    for n, t in zip(SIZES, native):
        # One CR+CW round, priced once: the simulation is that round per
        # PRAM step (``simulation_cost``'s own product).
        cost = crcw_round_cost(machine_factory(n), n)
        steps = chandran_mount_steps(n)
        sim = steps * cost
        out.append([
            n,
            f"{t:.0f}",
            f"{steps:.0f}",
            f"{cost:.0f}",
            f"{sim:.0f}",
            f"{sim / t:.1f}x",
        ])
    return out


def tables() -> list[tuple]:
    headers = ["n", "native time", "PRAM steps (c log n)", "CR+CW cost",
               "simulation time", "simulation penalty"]
    native = native_times(mesh_machine, hypercube_machine)
    return [
        ("Section 6: native mesh envelope vs PRAM simulation",
         headers, rows(mesh_machine, [t for t, _ in native])),
        ("Section 6: native hypercube envelope vs PRAM simulation",
         headers, rows(hypercube_machine, [t for _, t in native])),
    ]
