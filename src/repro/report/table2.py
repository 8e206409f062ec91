"""Table 2 generator — transient behaviour problems (Section 4)."""

from __future__ import annotations

from ..analysis import polylog_fit, power_fit
from ..core.collision import collision_times
from ..core.containment import (
    containment_intervals,
    enclosing_cube_edge_function,
    smallest_enclosing_cube_ever,
)
from ..core.hull_membership import hull_membership_intervals
from ..core.neighbors import closest_point_sequence
from ..kinetics.davenport_schinzel import lambda_mesh_size
from ..kinetics.motion import converging_swarm, crossing_traffic, random_system
from ..machines.machine import MachineGroup, hypercube_machine, mesh_machine

TITLE = "Table 2: transient behaviour problems"

PROBLEMS = {
    "closest-seq (4.1)": (
        lambda n: random_system(n, d=2, k=1, seed=1),
        lambda m, s: closest_point_sequence(m, s),
        lambda n: lambda_mesh_size(n - 1, 2),
    ),
    "collisions (4.2)": (
        lambda n: crossing_traffic(n, seed=1),
        lambda m, s: collision_times(m, s),
        lambda n: n,
    ),
    "hull member (4.5)": (
        lambda n: random_system(n, d=2, k=1, seed=2, scale=5.0),
        lambda m, s: hull_membership_intervals(m, s),
        lambda n: lambda_mesh_size(n, 4),
    ),
    "fits box (4.6)": (
        lambda n: converging_swarm(n, seed=3),
        lambda m, s: containment_intervals(m, s, [40.0, 40.0]),
        lambda n: lambda_mesh_size(n, 1),
    ),
    "edge fn D(t) (4.7)": (
        lambda n: converging_swarm(n, seed=4),
        lambda m, s: enclosing_cube_edge_function(m, s),
        lambda n: lambda_mesh_size(n, 1),
    ),
    "min cube ever (4.8)": (
        lambda n: converging_swarm(n, seed=5),
        lambda m, s: smallest_enclosing_cube_ever(m, s),
        lambda n: lambda_mesh_size(n, 1),
    ),
}

SIZES = {
    "closest-seq (4.1)": [16, 64, 256],
    "collisions (4.2)": [16, 64, 256],
    "hull member (4.5)": [8, 16, 32],
    "fits box (4.6)": [16, 64, 256],
    "edge fn D(t) (4.7)": [16, 64, 256],
    "min cube ever (4.8)": [16, 64, 256],
}


def measure_on(problem: str, machine_factories) -> list[list[float]]:
    """Simulated time per factory and size: each instance is built once
    and run once on a :class:`MachineGroup` of the factories' machines."""
    make_system, run, _ = PROBLEMS[problem]
    times: list[list[float]] = [[] for _ in machine_factories]
    for n in SIZES[problem]:
        group = MachineGroup(f(4096) for f in machine_factories)
        run(group, make_system(n))
        for t, machine in zip(times, group.members):
            t.append(machine.metrics.time)
    return times


def measure(problem: str, machine_factory) -> list[float]:
    return measure_on(problem, (machine_factory,))[0]


def rows() -> list[list]:
    out = []
    for problem in PROBLEMS:
        sizes = SIZES[problem]
        _, _, pe_bound = PROBLEMS[problem]
        mesh_t, cube_t = measure_on(problem, (mesh_machine, hypercube_machine))
        out.append([
            problem,
            pe_bound(sizes[-1]),
            f"{mesh_t[-1]:.0f}",
            power_fit(sizes, mesh_t).describe(),
            f"{cube_t[-1]:.0f}",
            f"(log n)^{polylog_fit(sizes, cube_t):.2f}",
        ])
    return out


def tables() -> list[tuple]:
    return [(
        "Table 2 reproduction (transient problems; per-problem n sweeps)",
        ["problem", "PEs (lambda bound, max n)", "mesh t", "mesh fit",
         "cube t", "cube fit"],
        rows(),
    )]
