"""repro — Dynamic Computational Geometry on Meshes and Hypercubes.

A from-scratch reproduction of Boxer & Miller (ICPP 1988): parallel
algorithms for geometric properties of systems of moving point-objects,
implemented over simulated mesh-connected and hypercube SIMD machines with
full parallel-time accounting.

Layers
------
``repro.kinetics``
    Polynomial trajectories, piecewise functions (pieces with gaps),
    Davenport–Schinzel machinery (Section 2.4–2.5).
``repro.machines``
    Lockstep machine simulators: mesh (four indexing schemes), hypercube
    (Gray-code ranked), PRAM and serial baselines; hypercube packet routing
    (Sections 2.2–2.3).
``repro.ops``
    The data movement operations of Section 2.6 / Table 1.
``repro.geometry``
    Comparison-generic static geometry: hulls, closest pairs, rotating
    calipers, minimum enclosing rectangles (Table 4).
``repro.core``
    The paper's contribution: envelope construction (Section 3), transient
    behaviour (Section 4, Table 2) and steady-state computations
    (Section 5, Table 3).
``repro.baselines``
    Serial (Atallah) and CREW PRAM (Chandran–Mount) comparators plus
    brute-force oracles (Sections 1 and 6).

Quickstart
----------
>>> from repro import random_system, closest_point_sequence, mesh_machine
>>> system = random_system(16, d=2, k=1, seed=7)
>>> machine = mesh_machine(64)
>>> seq = closest_point_sequence(machine, system)
>>> R = seq.labels()            # the chronological sequence of Theorem 4.1
>>> cost = machine.metrics.time # simulated parallel time
"""

from .analysis import ScalingFit, geometric_sizes, polylog_fit, power_fit, render_table
from .core import (
    AngleCurve,
    AngleFamily,
    all_hull_membership_intervals,
    CurveFamily,
    PolynomialFamily,
    angle_restrictions,
    closest_point_sequence,
    collides,
    collision_times,
    collision_times_with,
    combine_pairwise,
    combine_pairwise_serial,
    containment_intervals,
    coordinate_extent_functions,
    distance_squared_functions,
    enclosing_cube_edge_function,
    envelope,
    envelope_serial,
    farthest_point_sequence,
    hull_membership_intervals,
    indicator_intervals,
    is_extreme_at,
    smallest_enclosing_cube_ever,
    threshold_indicator,
)
from .core.pairs import closest_pair_sequence, farthest_pair_sequence
from .core.steady import (
    SteadyValue,
    steady_is_extreme_angular,
    steady_antipodal_pairs,
    steady_closest_pair,
    steady_compare,
    steady_diameter_squared,
    steady_enclosing_rectangle,
    steady_farthest_neighbor,
    steady_farthest_pair,
    steady_hull,
    steady_is_extreme,
    steady_nearest_neighbor,
    steady_points,
    steady_rectangle_snapshot,
)
from .errors import (
    DegenerateSystemError,
    MachineConfigurationError,
    OperationContractError,
    ReproError,
    RootFindingError,
)
from .geometry import (
    antipodal_pairs,
    closest_pair,
    convex_hull,
    diameter_pair,
    enclosing_rectangle,
    rectangle_corners,
)
from .kinetics import (
    INF,
    Interval,
    Motion,
    Piece,
    PiecewiseFunction,
    PointSystem,
    Polynomial,
    certify_envelope,
    converging_swarm,
    crossing_traffic,
    divergent_system,
    expanding_swarm,
    extremal_sequence,
    inverse_ackermann,
    is_ds_sequence,
    lambda_bound,
    lambda_exact,
    lambda_hypercube_size,
    lambda_mesh_size,
    projectile_system,
    random_system,
    render_function,
    render_intervals,
    render_timeline,
    static_system,
)
from .machines import (
    Machine,
    ccc_machine,
    hypercube_machine,
    mesh_machine,
    pram_machine,
    serial_machine,
    shuffle_exchange_machine,
)

__version__ = "1.0.0"

__all__ = [
    # analysis
    "ScalingFit", "geometric_sizes", "polylog_fit", "power_fit", "render_table",
    # core — Section 3
    "CurveFamily", "PolynomialFamily", "envelope", "envelope_serial",
    "combine_pairwise", "combine_pairwise_serial", "threshold_indicator",
    # core — Section 4
    "closest_point_sequence", "farthest_point_sequence",
    "distance_squared_functions", "collides", "collision_times",
    "collision_times_with", "AngleCurve", "AngleFamily",
    "all_hull_membership_intervals", "angle_restrictions",
    "hull_membership_intervals", "is_extreme_at", "containment_intervals",
    "coordinate_extent_functions", "enclosing_cube_edge_function",
    "indicator_intervals", "smallest_enclosing_cube_ever",
    "closest_pair_sequence", "farthest_pair_sequence",
    # core — Section 5
    "SteadyValue", "steady_compare", "steady_points",
    "steady_nearest_neighbor", "steady_farthest_neighbor",
    "steady_closest_pair", "steady_hull", "steady_is_extreme",
    "steady_is_extreme_angular",
    "steady_antipodal_pairs", "steady_farthest_pair",
    "steady_diameter_squared", "steady_enclosing_rectangle",
    "steady_rectangle_snapshot",
    # geometry
    "antipodal_pairs", "closest_pair", "convex_hull", "diameter_pair",
    "enclosing_rectangle", "rectangle_corners",
    # kinetics
    "INF", "Interval", "Motion", "Piece", "PiecewiseFunction", "PointSystem",
    "Polynomial", "certify_envelope", "converging_swarm", "crossing_traffic",
    "divergent_system", "expanding_swarm", "extremal_sequence",
    "inverse_ackermann", "is_ds_sequence", "lambda_bound",
    "lambda_exact", "lambda_hypercube_size", "lambda_mesh_size",
    "projectile_system", "random_system", "render_function",
    "render_intervals", "render_timeline", "static_system",
    # machines
    "Machine", "ccc_machine", "hypercube_machine", "mesh_machine",
    "pram_machine", "serial_machine", "shuffle_exchange_machine",
    # errors
    "ReproError", "DegenerateSystemError", "MachineConfigurationError",
    "OperationContractError", "RootFindingError",
]
