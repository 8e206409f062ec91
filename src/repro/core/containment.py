"""Containment problems — Theorems 4.6, 4.7 and Corollary 4.8.

* :func:`containment_intervals` — the ordered list ``J`` of time intervals
  during which the system fits in an iso-oriented hyper-rectangle of given
  fixed dimensions (Theorem 4.6).
* :func:`enclosing_cube_edge_function` — the edgelength function ``D(t)`` of
  the smallest iso-oriented hypercube containing the system, with
  ``Theta(lambda(n, k))`` pieces (Theorem 4.7).
* :func:`smallest_enclosing_cube_ever` — ``D_min`` and a time attaining it
  (Corollary 4.8).

All three follow the paper's pipeline: per-coordinate min/max envelopes
``m_i`` / ``M_i`` (Theorem 3.2), differences ``D_i = M_i - m_i``
(Lemma 3.1 machinery), thresholding (Lemma 2.6) and constant-function
min/max combining.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import DegenerateSystemError, OperationContractError
from ..kinetics.motion import PointSystem
from ..kinetics.piecewise import PiecewiseFunction
from ..machines.machine import Machine
from ..ops import semigroup
from ..ops._common import next_pow2
from .envelope import (
    _build_envelopes,
    _charge_envelope,
    combine_pairwise,
    combine_pairwise_serial,
    normalize_inputs,
    threshold_indicator,
)
from .family import PolynomialFamily

__all__ = [
    "coordinate_extent_functions",
    "containment_intervals",
    "enclosing_cube_edge_function",
    "smallest_enclosing_cube_ever",
]


def _family(system: PointSystem) -> PolynomialFamily:
    return PolynomialFamily(max(1, system.k))


def _combine(machine, F, G, family, op):
    if machine is None:
        return combine_pairwise_serial(F, G, family, op)
    return combine_pairwise(machine, F, G, family, op)


def coordinate_extent_functions(machine: Machine | None,
                                system: PointSystem):
    """Step 1–2 of Theorem 4.6: the spread ``D_i(t) = M_i(t) - m_i(t)``.

    Returns the list of per-axis spread functions, each a piecewise
    polynomial with at most ``2 * lambda(n, k)`` pieces (Lemma 2.5).
    """
    fam = _family(system)
    labels = list(range(len(system)))
    # The 2d envelopes are independent instances: built as one forest,
    # then charged in the order m_0, M_0, D_0, m_1, ...
    trees = [(normalize_inputs([m[axis] for m in system.motions], labels),
              op)
             for axis in range(system.dimension) for op in ("min", "max")]
    built = _build_envelopes(machine, trees, fam)
    spreads = []
    for i in range(0, len(trees), 2):
        m_i, M_i = [_charge_envelope(machine, fns, fam, op, tree)
                    for (fns, op), tree in zip(trees[i:i + 2],
                                               built[i:i + 2])]
        spreads.append(_combine(machine, M_i, m_i, fam, "diff"))
    return spreads


def containment_intervals(machine: Machine | None, system: PointSystem,
                          box: Sequence[float]) -> list[tuple[float, float]]:
    """Theorem 4.6: ordered intervals when the system fits in the given box.

    ``box`` holds the side lengths ``X_1, ..., X_d``.  Runs in
    ``Theta(lambda^{1/2}(n, k))`` mesh time on ``lambda_M(n, k)`` PEs and
    ``Theta(log^2 n)`` hypercube time.
    """
    box = list(box)
    if len(box) != system.dimension:
        raise DegenerateSystemError(
            f"box has {len(box)} sides for a {system.dimension}-D system"
        )
    if any(x < 0 for x in box):
        raise OperationContractError("box dimensions must be non-negative")
    fam = _family(system)
    const_fam = PolynomialFamily(0)
    spreads = coordinate_extent_functions(machine, system)
    # Step 3: W_i(t) = 1{D_i(t) <= X_i} (at most 2(k+1) lambda pieces each).
    ws = [
        threshold_indicator(D, fam, x, relation="le", machine=machine)
        for D, x in zip(spreads, box)
    ]
    # Step 4: C(t) = min_i W_i(t) via Theta(log d) = Theta(1) combine stages.
    C = ws[0]
    for w in ws[1:]:
        C = _combine(machine, C, w, const_fam, "min")
    # Step 5: pack the intervals where C = 1.
    return indicator_intervals(machine, C)


def indicator_intervals(machine: Machine | None,
                        indicator: PiecewiseFunction) -> list[tuple[float, float]]:
    """The ordered intervals on which a {0,1}-piecewise function equals 1.

    The machine variant charges the parallel-prefix packing round the paper
    uses; the interval list itself is the algorithm's output.
    """
    out = []
    for p in indicator.pieces:
        if p.fn(p.midpoint()) >= 0.5:
            if out and abs(out[-1][1] - p.lo) <= 1e-9 * max(1.0, abs(p.lo)):
                out[-1] = (out[-1][0], p.hi)
            else:
                out.append((p.lo, p.hi))
    if machine is not None:
        machine.monotone_route(next_pow2(max(2, len(indicator.pieces))))
    return out


def enclosing_cube_edge_function(machine: Machine | None,
                                 system: PointSystem) -> PiecewiseFunction:
    """Theorem 4.7: ``D(t)`` = edgelength of the smallest enclosing cube.

    ``D(t) = max_i D_i(t)`` with ``Theta(lambda(n, k))`` pieces; combining
    the ``d`` spreads takes ``Theta(log d) = Theta(1)`` stages of Lemma 3.1.
    """
    fam = _family(system)
    spreads = coordinate_extent_functions(machine, system)
    D = spreads[0]
    for s in spreads[1:]:
        D = _combine(machine, D, s, fam, "max")
    return D


def smallest_enclosing_cube_ever(machine: Machine | None,
                                 system: PointSystem) -> tuple[float, float]:
    """Corollary 4.8: ``(D_min, t_min)`` minimising ``D(t)`` over all time.

    Each PE minimises its Theta(1) pieces locally (critical points of a
    bounded-degree polynomial), then one semigroup min reduces globally.
    """
    D = enclosing_cube_edge_function(machine, system)
    best = (math.inf, math.inf)
    per_piece = []
    for p in D.pieces:
        fn = p.fn
        cands = [p.lo]
        hi = p.hi
        if math.isfinite(hi):
            cands.append(hi)
        cands.extend(fn.derivative().real_roots(p.lo, hi))
        local = min((float(fn(t)), float(t)) for t in cands)
        per_piece.append(local)
        best = min(best, local)
    if machine is not None:
        length = next_pow2(max(2, len(D.pieces)))
        machine.local(length, count=max(1, system.k))
        vals = np.full(length, math.inf, dtype=object)
        vals[: len(per_piece)] = [v for v, _ in per_piece]
        semigroup(machine, vals, np.minimum)
    return best
