"""The Section 1 closing remark: other architectures.

"It is possible that these algorithms can be implemented on other
architectures, such as the cube-connected cycles or shuffle-exchange
network, to give efficient algorithms for these architectures."

Everything in :mod:`repro.ops` is a *normal* algorithm (rank bits visited
in sequence), so CCC and shuffle-exchange emulate the hypercube versions
with constant slowdown.  This report runs the Theorem 3.2 envelope on all
four distributed networks and fits the growth: the three log-class
machines must share the hypercube's ``Theta(log^2 n)`` shape (constant
factors apart), with the mesh the only ``sqrt``-class machine.
"""

from __future__ import annotations

import numpy as np

from ..analysis import geometric_sizes, polylog_fit, power_fit
from ..core.envelope import envelope
from ..core.family import PolynomialFamily
from ..kinetics.polynomial import Polynomial
from ..machines.machine import (
    MachineGroup,
    ccc_machine,
    hypercube_machine,
    mesh_machine,
    shuffle_exchange_machine,
)

TITLE = "Section 1 remark: CCC and shuffle-exchange implementations"

SIZES = geometric_sizes(64, 4096, factor=4)
FAMILY = PolynomialFamily(1)

NETWORKS = {
    "mesh": mesh_machine,
    "hypercube": hypercube_machine,
    "cube-connected cycles": ccc_machine,
    "shuffle-exchange": shuffle_exchange_machine,
}


def _curves(n: int, seed: int = 0) -> list[Polynomial]:
    rng = np.random.default_rng(seed)
    return [Polynomial(rng.uniform(-10, 10, 2)) for _ in range(n)]


def rows() -> list[list]:
    # One combine tree per size, costed on every network at once.
    times: dict[str, list[float]] = {name: [] for name in NETWORKS}
    for n in SIZES:
        machines = {name: mk(n) for name, mk in NETWORKS.items()}
        envelope(MachineGroup(machines.values()), _curves(n), FAMILY)
        for name, machine in machines.items():
            times[name].append(machine.metrics.time)
    cube = times["hypercube"][-1]
    out = []
    for name, t in times.items():
        fit = (power_fit(SIZES, t).describe() if name == "mesh"
               else f"(log n)^{polylog_fit(SIZES, t):.2f}")
        # Constant-slowdown column relative to the hypercube.
        slowdown = (f"{t[-1] / cube:.2f}x cube"
                    if name in ("cube-connected cycles", "shuffle-exchange")
                    else "-")
        out.append([name, f"{t[-1]:.0f}", fit, slowdown])
    return out


def tables() -> list[tuple]:
    return [(
        f"Envelope construction across networks (n = {SIZES})",
        ["network", f"time (n={SIZES[-1]})", "fit", "slowdown"],
        rows(),
    )]
