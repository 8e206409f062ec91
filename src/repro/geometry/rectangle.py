"""Minimum-area enclosing rectangle — Theorem 5.8's static substrate.

A minimal-area rectangle enclosing a convex polygon has one side collinear
with a polygon edge; the other three sides pass through support vertices:
the *far* vertex (greatest height above the edge) and the *left*/*right*
vertices (least/greatest projection onto the edge direction).
:func:`enclosing_rectangle` is the rotating-calipers algorithm behind
Theorem 5.8: as the edge advances counter-clockwise, each of the three
supports only advances too, so one sweep finds them all in ``O(m)``.  The
area is formed per edge and minimised over edges.

Areas are compared as *fractions* ``A_e / |e|^2`` with positive
denominators, using cross-multiplication: ``A_e * L_f < A_f * L_e``.  This
keeps every comparison polynomial, so steady-state coordinates (Lemma 5.1)
work unchanged — mirroring the paper's observation that the squared area
function has degree at most 8k.
"""

from __future__ import annotations

import operator
from functools import partial

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

    ``edge`` is the polygon edge from vertex ``edge`` to ``edge + 1`` that
    the rectangle's base lies on; ``far``, ``left`` and ``right`` are the
    support vertices (ties go to the lowest vertex index).
    ``len2_den`` is ``|e|^2`` and ``area_num`` is ``area * |e|^2``, so the
    area is ``area_num / len2_den`` — exact in the scalar ring, with no
    division.
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

    Returns the witnessing supports.  Rotating calipers: the far, left and
    right supports advance monotonically around the polygon as the edge
    does, so the sweep costs ``O(m)`` comparisons.  Every field equals
    the ``O(m^2)`` edge-by-vertex scan's (:func:`_enclosing_rectangle_scan`,
    the test oracle), ties included.  The monotone advance needs a
    convex polygon, such as the extreme points :func:`convex_hull
    <repro.geometry.convex_hull.convex_hull>` returns; on other input the
    supports are unspecified.
    """
    pts = list(poly)
    m = len(pts)
    if m < 3:
        raise DegenerateSystemError("enclosing rectangle needs >= 3 vertices")
    best: RectangleSupport | None = None
    # Support counters grow without wrapping; the vertex is ``k % m``.
    k_far = k_right = k_left = 1
    for e in range(m):
        ax, ay = pts[e][0], pts[e][1]
        b = pts[(e + 1) % m]
        ex = b[0] - ax
        ey = b[1] - ay
        len2 = ex * ex + ey * ey
        height = partial(_height, ax, ay, ex, ey)
        proj = partial(_proj, ax, ay, ex, ey)
        # Along the polygon from vertex e + 1 come the right, far and left
        # supports, in that order.
        k_far, far, h_far = _support(pts, max(k_far, e + 1), height,
                                     operator.gt)
        k_right, right, p_max = _support(pts, max(k_right, e + 1), proj,
                                         operator.gt)
        k_left, left, p_min = _support(pts, max(k_left, k_far), proj,
                                       operator.lt)
        # width*|e| = p_max - p_min; height*|e| = h_far;
        # area = width * height = (p_max - p_min) * h_far / |e|^2.
        area_num = (p_max - p_min) * h_far
        cand = RectangleSupport(e, far, left, right, area_num, len2)
        if best is None or cand.better_than(best):
            best = cand
    return best


def _height(ax, ay, ex, ey, q):
    """Height of ``q`` above the edge, times ``|e|`` (a cross product)."""
    return ex * (q[1] - ay) - ey * (q[0] - ax)


def _proj(ax, ay, ex, ey, q):
    """Projection of ``q`` onto the edge, times ``|e|`` (a dot product)."""
    return ex * (q[0] - ax) + ey * (q[1] - ay)


def _support(pts: list, k: int, value, beats) -> tuple:
    """Advance support counter ``k`` while the next vertex's ``value``
    ``beats`` the current one: ``(k, vertex, value)`` at the extreme.

    A tie with the next vertex is kept at the lower index, as the scan
    keeps the first extreme vertex; past the current one, that is only
    the wrap to vertex 0.
    """
    m = len(pts)
    v = value(pts[k % m])
    while True:
        nxt = (k + 1) % m
        w = value(pts[nxt])
        if not beats(w, v):
            break
        k += 1
        v = w
    if nxt == 0 and not beats(v, w):
        return k, 0, w
    return k, k % m, v


def _enclosing_rectangle_scan(poly) -> RectangleSupport:
    """``O(m^2)`` oracle for :func:`enclosing_rectangle`: every edge
    against every vertex, keeping the first extreme of each support."""
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
        far = left = right = None
        h_far = p_min = p_max = None
        for v in range(m):
            q = pts[v]
            h = ex * (q[1] - a[1]) - ey * (q[0] - a[0])
            p = ex * (q[0] - a[0]) + ey * (q[1] - a[1])
            if h_far is None or h > h_far:
                h_far, far = h, v
            if p_min is None or p < p_min:
                p_min, left = p, v
            if p_max is None or p > p_max:
                p_max, right = p, v
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
