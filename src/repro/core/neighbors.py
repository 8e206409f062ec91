"""Chronological closest/farthest point sequences — Theorem 4.1.

For a dynamic system ``S = {P_0, ..., P_{n-1}}`` with k-motion, the sequence
``R`` of points closest to a query point, in chronological order, is read off
the lower envelope of the squared-distance polynomials ``d^2_{0j}(t)`` (each
of degree at most 2k).  The farthest sequence ``R'`` uses the upper envelope.

Cost: broadcast of ``f_0`` + local construction of ``d^2`` + one envelope —
``Theta(lambda^{1/2}(n-1, 2k))`` on a mesh of ``lambda_M(n-1, 2k)`` PEs and
``Theta(log^2 n)`` on a hypercube (Theorem 4.1).
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateSystemError
from ..kinetics.motion import PointSystem
from ..kinetics.piecewise import PiecewiseFunction
from ..machines.machine import Machine
from ..ops import broadcast as op_broadcast
from ..ops._common import next_pow2
from .envelope import envelope, envelope_serial
from .family import PolynomialFamily

__all__ = ["closest_point_sequence", "farthest_point_sequence",
           "distance_squared_functions"]


def distance_squared_functions(machine: Machine | None, system: PointSystem,
                               query: int = 0):
    """Broadcast ``f_query`` and build all ``d^2_{query,j}`` (degree <= 2k).

    Returns ``(functions, labels)`` where labels are the point indices
    ``j != query``.  When a machine is given, the broadcast and the local
    construction rounds are charged.
    """
    n = len(system)
    if n < 2:
        raise DegenerateSystemError("need at least two points for neighbours")
    if not (0 <= query < n):
        raise DegenerateSystemError(f"query index {query} out of range")
    if machine is not None:
        length = next_pow2(n)
        marked = np.zeros(length, dtype=bool)
        marked[query] = True
        op_broadcast(machine, np.zeros(length), marked)
        machine.local(length)
    fq = system[query]
    fns, labels = [], []
    for j, m in enumerate(system):
        if j == query:
            continue
        fns.append(fq.distance_squared(m))
        labels.append(j)
    return fns, labels


def closest_point_sequence(machine: Machine | None, system: PointSystem,
                           query: int = 0) -> PiecewiseFunction:
    """The envelope whose labels are ``R``: closest points in time order.

    The returned piecewise function is ``min_j d^2_{query,j}(t)`` with piece
    labels identifying the closest point on each interval; ``.labels()`` is
    the paper's sequence ``R``.  ``machine=None`` runs the serial path.
    """
    fns, labels = distance_squared_functions(machine, system, query)
    family = PolynomialFamily(2 * max(1, system.k))
    if machine is None:
        return envelope_serial(fns, family, op="min", labels=labels)
    return envelope(machine, fns, family, op="min", labels=labels)


def farthest_point_sequence(machine: Machine | None, system: PointSystem,
                            query: int = 0) -> PiecewiseFunction:
    """The upper-envelope analogue: the sequence ``R'`` of farthest points."""
    fns, labels = distance_squared_functions(machine, system, query)
    family = PolynomialFamily(2 * max(1, system.k))
    if machine is None:
        return envelope_serial(fns, family, op="max", labels=labels)
    return envelope(machine, fns, family, op="max", labels=labels)
