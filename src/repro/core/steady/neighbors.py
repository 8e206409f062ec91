"""Steady-state nearest/farthest neighbour and closest pair —
Propositions 5.2 and 5.3.

A steady-state nearest neighbour to ``P_0`` is found *without* building the
whole chronological sequence ``R`` of Theorem 4.1: broadcast ``f_0``, build
the degree-``2k`` squared distances, and take a single semigroup minimum
under the Lemma 5.1 comparator — ``Theta(sqrt(n))`` on an n-PE mesh and
``Theta(log n)`` on a hypercube, versus ``Theta(lambda^{1/2}(n-1,2k))`` PEs
and time for the transient solution (the paper's motivating comparison at
the start of Section 5).
"""

from __future__ import annotations

import numpy as np

from ...errors import DegenerateSystemError
from ...kinetics.motion import PointSystem
from ...machines.machine import Machine
from ...ops import broadcast as op_broadcast
from ...ops import semigroup
from ...ops._common import next_pow2
from ...geometry.closest_pair import closest_pair, closest_pair_parallel
from .reduction import SteadyValue, steady_points

__all__ = ["steady_nearest_neighbor", "steady_farthest_neighbor",
           "steady_closest_pair"]


def _steady_extreme_neighbor(machine: Machine | None, system: PointSystem,
                             query: int, want_min: bool) -> int:
    n = len(system)
    if n < 2:
        raise DegenerateSystemError("need at least two points")
    if not (0 <= query < n):
        raise DegenerateSystemError(f"query index {query} out of range")
    d2 = [
        (SteadyValue(system.distance_squared(query, j)), j)
        for j in range(n) if j != query
    ]
    if machine is not None:
        length = next_pow2(n)
        marked = np.zeros(length, dtype=bool)
        marked[query] = True
        with machine.phase("broadcast"):
            op_broadcast(machine, np.zeros(length), marked)
        machine.local(length)  # build d^2_{0j} locally
        with machine.phase("semigroup"):
            return _select(machine, d2, np.minimum if want_min
                           else np.maximum, length)
    key = min if want_min else max
    return key(d2, key=lambda p: p[0])[1]


def _select(machine: Machine, cands: list, op, length: int) -> object:
    """The tag of the first minimal (``np.minimum``) or maximal
    (``np.maximum``) steady value of ``(value, tag)`` candidates, by a
    semigroup over the values themselves.

    The object ufuncs keep the first operand on ties, so the winner is
    the first extreme candidate, as ``min``/``max`` pick it; it is one of
    the candidates' own value objects, which names its tag.  The
    ``length`` slots past the candidates repeat the last one.
    """
    vals = np.empty(length, dtype=object)
    for i in range(length):
        vals[i] = cands[min(i, len(cands) - 1)][0]
    winner = semigroup(machine, vals, op)[0]
    return next(tag for value, tag in cands if value is winner)


def steady_nearest_neighbor(machine: Machine | None, system: PointSystem,
                            query: int = 0) -> int:
    """Proposition 5.2: index of a steady-state nearest neighbour."""
    return _steady_extreme_neighbor(machine, system, query, want_min=True)


def steady_farthest_neighbor(machine: Machine | None, system: PointSystem,
                             query: int = 0) -> int:
    """Proposition 5.2: index of a steady-state farthest neighbour."""
    return _steady_extreme_neighbor(machine, system, query, want_min=False)


def steady_closest_pair(machine: Machine | None,
                        system: PointSystem) -> tuple[int, int]:
    """Proposition 5.3: a steady-state closest pair of the planar system.

    Lemma 5.1 turns every comparison of (squares of) distances into a
    Theta(1) leading-coefficient test, so the static closest-pair algorithm
    runs unchanged on the steady coordinates: ``Theta(sqrt(n))`` mesh,
    ``Theta(log^2 n)`` hypercube (expected ``Theta(log n)`` with randomized
    sorting).
    """
    pts = steady_points(system)
    if machine is None:
        return closest_pair(pts)
    return closest_pair_parallel(machine, pts)
