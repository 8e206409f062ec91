"""Table 4 generator — static algorithms adapted for steady state."""

from __future__ import annotations

import math

import numpy as np

from ..analysis import geometric_sizes, polylog_fit, power_fit
from ..geometry.antipodal import antipodal_pairs
from ..geometry.closest_pair import closest_pair_parallel
from ..geometry.convex_hull import convex_hull, convex_hull_parallel
from ..geometry.rectangle import enclosing_rectangle_parallel
from ..machines.machine import MachineGroup, hypercube_machine, mesh_machine

TITLE = "Table 4: static algorithms"

SIZES = geometric_sizes(16, 1024, factor=4)


def rand_points(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [tuple(p) for p in rng.uniform(-100, 100, (n, 2))]


def circle(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [((10 + rng.uniform(0, 1e-3)) * math.cos(2 * math.pi * i / n),
             (10 + rng.uniform(0, 1e-3)) * math.sin(2 * math.pi * i / n))
            for i in range(n)]


def circle_polygon(n: int, seed: int = 0):
    """The convex polygon of :func:`circle`'s points: its hull, in CCW
    order (the jitter leaves some points inside once ``n`` is large)."""
    pts = circle(n, seed)
    return [pts[i] for i in convex_hull(pts)]


def sweep_on(fn, machine_factories, pts_fn) -> list[list[float]]:
    """Simulated time per factory and size: each point set is built once
    and run once on a :class:`MachineGroup` of the factories' machines."""
    times: list[list[float]] = [[] for _ in machine_factories]
    for n in SIZES:
        group = MachineGroup(f(n) for f in machine_factories)
        fn(group, pts_fn(n))
        for t, machine in zip(times, group.members):
            t.append(machine.metrics.time)
    return times


def sweep(fn, machine_factory, pts_fn) -> list[float]:
    return sweep_on(fn, (machine_factory,), pts_fn)[0]


def serial_antipodal_ops() -> list[int]:
    """Serial work model: n log n sort comparisons + calipers advances."""
    ops = []
    for n in SIZES:
        poly = circle(n, seed=n)
        hull = convex_hull(poly)
        count = int(n * math.log2(n))
        count += len(antipodal_pairs([poly[i] for i in hull])) * 2
        ops.append(count)
    return ops


def rows() -> list[list]:
    out = []
    both = (mesh_machine, hypercube_machine)
    cp_mesh, cp_cube = sweep_on(closest_pair_parallel, both, rand_points)
    out.append(["closest pair", "mesh", f"{cp_mesh[-1]:.0f}",
                power_fit(SIZES, cp_mesh).describe()])
    out.append(["closest pair", "hypercube", f"{cp_cube[-1]:.0f}",
                f"(log n)^{polylog_fit(SIZES, cp_cube):.2f}"])
    ch_mesh, ch_cube = sweep_on(convex_hull_parallel, both, rand_points)
    out.append(["convex hull", "mesh", f"{ch_mesh[-1]:.0f}",
                power_fit(SIZES, ch_mesh).describe()])
    out.append(["convex hull", "hypercube", f"{ch_cube[-1]:.0f}",
                f"(log n)^{polylog_fit(SIZES, ch_cube):.2f}"])
    ap = serial_antipodal_ops()
    out.append(["antipodal vertices", "serial", f"{ap[-1]:.0f}",
                power_fit(SIZES, ap).describe() + " (target n log n)"])
    er_cube = sweep(enclosing_rectangle_parallel, hypercube_machine,
                    circle_polygon)
    out.append(["min encl. rectangle", "hypercube", f"{er_cube[-1]:.0f}",
                f"(log n)^{polylog_fit(SIZES, er_cube):.2f}"])
    return out


def tables() -> list[tuple]:
    return [(
        f"Table 4 reproduction (static algorithms, n = {SIZES})",
        ["algorithm", "model", f"t(n={SIZES[-1]})", "fit"],
        rows(),
    )]
