"""The paper's contribution: dynamic computational geometry algorithms.

Sections 3 (envelope construction), 4 (transient behaviour) and 5
(steady state), machine-independent and implemented over the data movement
operations of :mod:`repro.ops`.
"""

from .collision import collides, collision_times, collision_times_with
from .containment import (
    containment_intervals,
    coordinate_extent_functions,
    enclosing_cube_edge_function,
    indicator_intervals,
    smallest_enclosing_cube_ever,
)
from .envelope import (
    combine_pairwise,
    combine_pairwise_serial,
    envelope,
    envelope_serial,
    threshold_indicator,
)
from .family import CurveFamily, PolynomialFamily
from .hull_membership import (
    AngleCurve,
    AngleFamily,
    all_hull_membership_intervals,
    angle_restrictions,
    hull_membership_intervals,
    is_extreme_at,
)
from .neighbors import (
    closest_point_sequence,
    distance_squared_functions,
    farthest_point_sequence,
)

__all__ = [
    "collides", "collision_times", "collision_times_with",
    "containment_intervals", "coordinate_extent_functions",
    "enclosing_cube_edge_function", "indicator_intervals",
    "smallest_enclosing_cube_ever",
    "combine_pairwise", "combine_pairwise_serial", "envelope",
    "envelope_serial",
    "threshold_indicator",
    "CurveFamily", "PolynomialFamily",
    "AngleCurve", "AngleFamily", "all_hull_membership_intervals",
    "angle_restrictions", "hull_membership_intervals", "is_extreme_at",
    "closest_point_sequence", "distance_squared_functions",
    "farthest_point_sequence",
]
