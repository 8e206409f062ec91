"""Steady-state diameter and farthest pair — Prop. 5.6 and Corollary 5.7.

A farthest pair must be a pair of extreme points (Shamos), and among hull
vertices it must be antipodal (Lemma 5.5).  Pipeline: steady hull ->
antipodal pairs -> semigroup max of steady squared distances, every
comparison decided by Lemma 5.1.
"""

from __future__ import annotations

import numpy as np

from ...errors import DegenerateSystemError
from ...kinetics.motion import PointSystem
from ...kinetics.polynomial import Polynomial
from ...machines.machine import Machine
from ...ops._common import next_pow2
from ...geometry.antipodal import antipodal_pairs, antipodal_pairs_parallel
from .hull import steady_hull
from .neighbors import _select
from .reduction import SteadyValue, steady_points

__all__ = ["steady_farthest_pair", "steady_diameter_squared",
           "steady_antipodal_pairs"]


def steady_antipodal_pairs(machine: Machine | None,
                           system: PointSystem) -> list[tuple[int, int]]:
    """Lemma 5.5 on the steady hull; pairs are system point indices."""
    hull = steady_hull(machine, system)
    if len(hull) < 2:
        raise DegenerateSystemError("antipodal pairs need >= 2 hull vertices")
    pts = steady_points(system)
    poly = [pts[i] for i in hull]
    if machine is None:
        local = antipodal_pairs(poly)
    else:
        local = antipodal_pairs_parallel(machine, poly)
    return [(hull[i], hull[j]) for i, j in local]


def steady_farthest_pair(machine: Machine | None,
                         system: PointSystem) -> tuple[int, int]:
    """Corollary 5.7: a steady-state farthest pair of the planar system."""
    pairs = steady_antipodal_pairs(machine, system)
    cands = [
        (SteadyValue(system.distance_squared(i, j)), (i, j)) for i, j in pairs
    ]
    if machine is not None:
        with machine.phase("steady-max"):
            return _select(machine, cands, np.maximum,
                           next_pow2(max(2, len(cands))))
    return max(cands, key=lambda c: c[0])[1]


def steady_diameter_squared(machine: Machine | None,
                            system: PointSystem) -> Polynomial:
    """Prop. 5.6: the (squared) diameter function of the steady hull.

    Returned as the degree-<=2k polynomial ``d^2_{ij}(t)`` of the farthest
    pair — the function whose square root is the diameter for all
    sufficiently large ``t``.
    """
    i, j = steady_farthest_pair(machine, system)
    return system.distance_squared(i, j)
