"""Table 3 generator — steady-state problems (Section 5)."""

from __future__ import annotations

from ..analysis import geometric_sizes, polylog_fit, power_fit
from ..core.steady.diameter import steady_antipodal_pairs, steady_farthest_pair
from ..core.steady.hull import steady_hull
from ..core.steady.neighbors import steady_closest_pair, steady_nearest_neighbor
from ..core.steady.rectangle import steady_enclosing_rectangle
from ..kinetics.motion import divergent_system
from ..machines.machine import MachineGroup, hypercube_machine, mesh_machine

TITLE = "Table 3: steady-state problems"

SIZES = geometric_sizes(16, 256, factor=4)

PROBLEMS = {
    "nearest neighbor (5.2)": steady_nearest_neighbor,
    "closest pair (5.3)": steady_closest_pair,
    "hull vertices (5.4)": steady_hull,
    "antipodal/diameter (5.5-5.6)": steady_antipodal_pairs,
    "farthest pair (5.7)": steady_farthest_pair,
    "min rectangle (5.9)": steady_enclosing_rectangle,
}


def _systems() -> list:
    return [divergent_system(n, d=2, seed=n) for n in SIZES]


def measure_on(fn, machine_factories, systems) -> list[list[float]]:
    """Simulated time per factory and size: each ``systems`` instance runs
    once on a :class:`MachineGroup` of the factories' machines."""
    times: list[list[float]] = [[] for _ in machine_factories]
    for n, system in zip(SIZES, systems):
        group = MachineGroup(f(n) for f in machine_factories)
        fn(group, system)
        for t, machine in zip(times, group.members):
            t.append(machine.metrics.time)
    return times


def measure(fn, machine_factory) -> list[float]:
    return measure_on(fn, (machine_factory,), _systems())[0]


def rows() -> list[list]:
    out = []
    systems = _systems()
    factories = (mesh_machine, hypercube_machine,
                 lambda n: hypercube_machine(n, randomized=True))
    for name, fn in PROBLEMS.items():
        mesh_t, cube_t, exp_t = measure_on(fn, factories, systems)
        out.append([
            name,
            f"{mesh_t[-1]:.0f}",
            power_fit(SIZES, mesh_t).describe(),
            f"{cube_t[-1]:.0f}",
            f"(log n)^{polylog_fit(SIZES, cube_t):.2f}",
            f"{exp_t[-1]:.0f}",
        ])
    return out


def tables() -> list[tuple]:
    return [(
        f"Table 3 reproduction (steady-state problems, n = {SIZES})",
        ["problem", "mesh t", "mesh fit", "cube t", "cube fit",
         "cube expected t (randomized)"],
        rows(),
    )]
