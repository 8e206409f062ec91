"""Steady-state convex hull — Proposition 5.4 (and the remark after it).

The static hull algorithms are built on relative-position predicates
(orientation tests), each of which Lemma 5.1 decides in Theta(1) time on
steady coordinates; the problem therefore reduces to the static one:
``Theta(sqrt(n))`` mesh, ``Theta(log^2 n)`` hypercube (expected
``Theta(log n)``).

The paper remarks that the *membership* question alone — is a given query
point an extreme point of the steady hull? — can also be answered by
adapting the angle machinery of Theorem 4.5.  :func:`steady_is_extreme_angular`
implements that route: the query is extreme iff the directions towards all
other points leave an open angular gap greater than pi, and comparing two
steady *directions* needs only cross/dot-product signs at infinity — pure
Lemma 5.1 comparisons, no hull construction.
"""

from __future__ import annotations

import numpy as np

from ...kinetics.motion import PointSystem
from ...machines.machine import Machine
from ...ops import bitonic_sort, semigroup
from ...ops._common import next_pow2
from ...geometry.convex_hull import convex_hull, convex_hull_parallel
from ...trace.tracer import trace_span
from .reduction import SteadyValue, steady_points

__all__ = ["steady_hull", "steady_is_extreme", "steady_is_extreme_angular"]


def steady_hull(machine: Machine | None, system: PointSystem) -> list[int]:
    """Indices of the extreme points of ``hull(S)`` as ``t -> inf``,
    in counter-clockwise order of the steady configuration."""
    with trace_span("steady_hull",
                    None if machine is None else machine.metrics,
                    category="driver", n=len(system)):
        pts = steady_points(system)
        if machine is None:
            return convex_hull(pts)
        return convex_hull_parallel(machine, pts)


def steady_is_extreme(machine: Machine | None, system: PointSystem,
                      query: int = 0) -> bool:
    """Is the query point an extreme point of the steady-state hull?

    The paper notes this query is answered by the hull construction itself
    (remark after Proposition 5.4).
    """
    return query in steady_hull(machine, system)


class _SteadyDirection:
    """A direction vector with polynomial components, ordered by its
    eventual polar angle as ``t -> inf``.

    The half-plane index (is the eventual direction in the open lower
    half-plane, or on the negative x-axis?) plus a cross-product sign gives
    a total angular order — the standard "sort by angle without atan2"
    construction, with every sign decided by Lemma 5.1.
    """

    __slots__ = ("dx", "dy", "j")

    def __init__(self, dx: SteadyValue, dy: SteadyValue, j: int):
        self.dx = dx
        self.dy = dy
        self.j = j

    def _half(self) -> int:
        """0 for angle in [0, pi), 1 for [pi, 2 pi) — at infinity."""
        sy = self.dy.sign()
        if sy > 0:
            return 0
        if sy < 0:
            return 1
        return 0 if self.dx.sign() > 0 else 1

    def __lt__(self, other: "_SteadyDirection") -> bool:
        ha, hb = self._half(), other._half()
        if ha != hb:
            return ha < hb
        # self strictly CCW-before other: cross(self, other) > 0.
        return (self.dx * other.dy).compare(other.dx * self.dy) > 0

    def __gt__(self, other: "_SteadyDirection") -> bool:
        return other.__lt__(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _SteadyDirection):
            return NotImplemented
        return not self.__lt__(other) and not other.__lt__(self)

    def __hash__(self):  # pragma: no cover - not used as dict key
        return hash(self.j)


def steady_is_extreme_angular(machine: Machine | None, system: PointSystem,
                              query: int = 0) -> bool:
    """Extreme-point membership at steady state via the Theorem 4.5 route.

    Sort the steady directions from the query to all other points by their
    eventual polar angle (Lemma 5.1 sign tests only), then test whether
    some circular gap between consecutive directions exceeds pi — i.e. the
    successor direction lies strictly within the open half-plane CCW of the
    reversed predecessor.  One sort + one semigroup: ``Theta(sqrt n)`` mesh
    / ``Theta(log^2 n)`` hypercube, matching the paper's remark that this
    is an (expected-) optimal alternative to building the whole hull.
    """
    if system.dimension != 2:
        raise ValueError("the angular criterion is planar")
    n = len(system)
    fq = system[query]
    dirs = []
    for j, m in enumerate(system):
        if j == query:
            continue
        dirs.append(_SteadyDirection(
            SteadyValue(m[0] - fq[0]), SteadyValue(m[1] - fq[1]), j
        ))
    if not dirs:
        return True
    if machine is not None:
        length = next_pow2(max(2, len(dirs)))
        keys = np.empty(length, dtype=object)
        for i in range(length):
            keys[i] = dirs[min(i, len(dirs) - 1)]
        with machine.phase("angular-sort"):
            bitonic_sort(machine, keys)
        with machine.phase("gap-check"):
            semigroup(machine, np.zeros(length), np.maximum)
        machine.local(length)
    ordered = sorted(dirs)
    if len(ordered) == 1:
        return True
    # In CCW-sorted order the gap from a to its successor b exceeds pi
    # exactly when cross(a, b) < 0 (the turn to reach b goes the long way
    # around); a gap of exactly pi (cross = 0, dot < 0) puts the query on
    # a hull edge, which is not an *extreme* point.
    saw_distinct = False
    for a, b in zip(ordered, ordered[1:] + ordered[:1]):
        cr = (a.dx * b.dy).compare(b.dx * a.dy)
        dt = (a.dx * b.dx + a.dy * b.dy).sign()
        if cr != 0 or dt < 0:
            saw_distinct = True
        if cr < 0:
            return True
    # All directions identical: the remaining circular gap is 2 pi.
    return not saw_distinct
