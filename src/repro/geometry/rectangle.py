"""Minimum-area enclosing rectangle — Theorem 5.8's static substrate.

A minimal-area rectangle enclosing a convex polygon has one side collinear
with a polygon edge; the other three sides pass through support vertices.
For every edge we find the three support vertices (max perpendicular
distance, min/max projection along the edge), form the area, and take the
minimum over edges — the rotating-calipers algorithm behind Theorem 5.8.

Areas are compared as *fractions* ``A_e / |e|^2`` with positive
denominators, using cross-multiplication: ``A_e * L_f < A_f * L_e``.  This
keeps every comparison polynomial, so steady-state coordinates (Lemma 5.1)
work unchanged — mirroring the paper's observation that the squared area
function has degree at most 8k.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateSystemError
from ..machines.machine import Machine
from ..ops import semigroup
from ..ops._common import next_pow2
from .antipodal import antipodal_pairs_parallel

__all__ = ["enclosing_rectangle", "enclosing_rectangle_parallel",
           "rectangle_corners", "RectangleSupport"]


class RectangleSupport:
    """The combinatorial answer: edge index + three support vertex indices.

    ``area2_num / len2_den`` is the squared... more precisely: ``area_num``
    equals ``area * |e|^2`` and ``len2_den`` equals ``|e|^2``, so the true
    area is ``area_num / len2_den`` — exact in the scalar ring, no division.
    """

    __slots__ = ("edge", "far", "left", "right", "area_num", "len2_den")

    def __init__(self, edge, far, left, right, area_num, len2_den):
        self.edge = edge
        self.far = far
        self.left = left
        self.right = right
        self.area_num = area_num
        self.len2_den = len2_den

    def better_than(self, other: "RectangleSupport") -> bool:
        """Fraction comparison by cross-multiplication (denominators > 0)."""
        lhs = self.area_num * other.len2_den
        rhs = other.area_num * self.len2_den
        return lhs < rhs

    def area(self) -> float:
        """Numeric area (float coordinates only)."""
        return float(self.area_num) / float(self.len2_den)


def enclosing_rectangle(poly) -> RectangleSupport:
    """Minimum-area enclosing rectangle of a CCW convex polygon.

    Returns the witnessing supports.  O(m^2) scan over edges x vertices —
    simple, comparison-generic, and plenty for the polygon sizes the
    steady-state pipeline produces (it post-processes hull output).
    """
    pts = list(poly)
    m = len(pts)
    if m < 3:
        raise DegenerateSystemError("enclosing rectangle needs >= 3 vertices")
    best: RectangleSupport | None = None
    for e in range(m):
        a = pts[e]
        b = pts[(e + 1) % m]
        ex = b[0] - a[0]
        ey = b[1] - a[1]
        len2 = ex * ex + ey * ey
        # Projections along the edge and perpendicular heights (times |e|).
        far = left = right = None
        h_far = p_min = p_max = None
        for v in range(m):
            q = pts[v]
            h = ex * (q[1] - a[1]) - ey * (q[0] - a[0])   # cross: height*|e|
            p = ex * (q[0] - a[0]) + ey * (q[1] - a[1])   # dot: proj*|e|
            if h_far is None or h > h_far:
                h_far, far = h, v
            if p_min is None or p < p_min:
                p_min, left = p, v
            if p_max is None or p > p_max:
                p_max, right = p, v
        # width*|e| = p_max - p_min; height*|e| = h_far;
        # area = width * height = (p_max - p_min) * h_far / |e|^2.
        area_num = (p_max - p_min) * h_far
        cand = RectangleSupport(e, far, left, right, area_num, len2)
        if best is None or cand.better_than(best):
            best = cand
    return best


def rectangle_corners(poly, sup: RectangleSupport) -> np.ndarray:
    """The 4 corners of the supported rectangle (float coordinates)."""
    pts = [np.array([float(p[0]), float(p[1])]) for p in poly]
    a = pts[sup.edge]
    b = pts[(sup.edge + 1) % len(pts)]
    e = b - a
    e = e / np.linalg.norm(e)
    nrm = np.array([-e[1], e[0]])
    p_min = min(float(np.dot(p - a, e)) for p in pts)
    p_max = max(float(np.dot(p - a, e)) for p in pts)
    h_max = max(float(np.dot(p - a, nrm)) for p in pts)
    c0 = a + p_min * e
    c1 = a + p_max * e
    return np.array([c0, c1, c1 + h_max * nrm, c0 + h_max * nrm])


def enclosing_rectangle_parallel(machine: Machine, poly) -> RectangleSupport:
    """Theorem 5.8 cost accounting: Lemma 5.5 + grouping + steady-min.

    Steps 1–4 reuse the antipodal machinery; step 5 is Theta(1) local work
    per edge; step 6 is a semigroup min over the edge areas.
    """
    result = enclosing_rectangle(poly)
    length = next_pow2(max(2, len(list(poly))))
    antipodal_pairs_parallel(machine, poly)        # steps 1-4
    machine.local(length)                          # step 5
    with machine.phase("steady-min"):
        semigroup(machine, np.zeros(length), np.minimum)  # step 6
    return result
