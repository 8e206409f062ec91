"""Convex hulls: serial monotone chain and the parallel divide-and-conquer
scheme of Miller–Stout (used by Proposition 5.4 and Table 4).

The serial algorithm is Andrew's monotone chain — the library's oracle and
the building block of each parallel merge step.  The parallel algorithm
sorts points by x once, then merges sibling sub-hulls level by level;
sibling merges run on disjoint strings simultaneously, so

``T(n) = T(n/2) + Theta(merge)``  ->  ``Theta(sqrt(n))`` mesh /
``Theta(log^2 n)`` hypercube,

the bounds quoted in Tables 3 and 4.  All predicates are comparison-based,
so both algorithms run unchanged on steady-state coordinates (Lemma 5.1).
Each hull looks its orientation test up once (:func:`orientation_of`:
the float kernel for steady coordinates), and the serial hull sorts on
the points' lowered coordinate columns (:func:`repro.ops.vexec.lower_keys`)
when they lower, which orders them as the coordinates' own comparisons do.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateSystemError, OperationContractError
from ..machines.machine import Machine
from ..ops import bitonic_merge, bitonic_sort, broadcast, pack, semigroup
from ..ops._common import next_pow2
from ..ops.vexec import lower_keys
from .primitives import lex_key, orientation, orientation_of

__all__ = ["convex_hull", "convex_hull_parallel", "hull_contains"]


def _chain(points: list, idx: list[int], orient) -> list[int]:
    """Half-hull scan keeping only strict turns (extreme points)."""
    out: list[int] = []
    for i in idx:
        while len(out) >= 2 and orient(
            points[out[-2]], points[out[-1]], points[i]
        ) <= 0:
            out.pop()
        out.append(i)
    return out


def _extend_chain(points: list, out: list[int], chain: list[int],
                  orient) -> list[int]:
    """Continue :func:`_chain`'s scan from the stack ``out`` over the
    vertices of another group's chain, in place.

    Every consecutive triple of a chain passed the strict-turn test when
    the chain was built, so once two consecutive ``chain`` vertices top
    the stack the scan would pop nothing more: the rest of ``chain`` is
    appended as is, and the scan costs only the tests up to the tangent.
    """
    for k, i in enumerate(chain):
        while len(out) >= 2 and orient(
            points[out[-2]], points[out[-1]], points[i]
        ) <= 0:
            out.pop()
        out.append(i)
        if k and out[-2] == chain[k - 1]:
            out.extend(chain[k + 1:])
            break
    return out


def _hull_of_chains(lower: list[int], upper: list[int]) -> list[int]:
    """The CCW extreme points from a lower chain (scanned by increasing
    ``(x, y)``) and an upper chain (scanned by decreasing ``(x, y)``)
    over the same deduplicated points."""
    if len(lower) == 1:
        return lower  # one distinct point
    if len(lower) == 2 and lower == upper[::-1]:
        return lower  # all points collinear: the two endpoints
    return lower[:-1] + upper[:-1]


def convex_hull(points) -> list[int]:
    """Indices of the extreme points of ``hull(points)``, CCW order.

    Collinear boundary points are excluded (the paper's *extreme points*).
    Duplicates are tolerated.  Raises for an empty input.
    """
    pts = list(points)
    if not pts:
        raise DegenerateSystemError("hull of an empty point set")
    uniq = _sorted_distinct(pts)
    orient = orientation_of(pts[0])
    return _hull_of_chains(_chain(pts, uniq, orient),
                           _chain(pts, uniq[::-1], orient))


def _sorted_distinct(pts: list) -> list[int]:
    """Point indices in stable ``(x, y, ...)`` order, keeping the first
    of each run of coincident points."""
    cols = _lower_coordinates(pts)
    if cols is None:
        order = sorted(range(len(pts)), key=lambda i: lex_key(pts[i]))
        uniq = [order[0]]
        for i in order[1:]:
            if tuple(pts[i]) != tuple(pts[uniq[-1]]):
                uniq.append(i)
        return uniq
    order = np.lexsort(cols[::-1])  # stable, as sorted() is
    repeat = np.ones(len(order) - 1, dtype=bool)
    for c in cols:
        c = c[order]
        repeat &= c[1:] == c[:-1]
    return order[np.concatenate(([True], ~repeat))].tolist()


def _lower_coordinates(pts: list) -> list[np.ndarray] | None:
    """The points' coordinates as lowered comparison columns, or None.

    Exact lexicographic order and equality over the columns are the
    coordinates' own (:func:`repro.ops.vexec.lower_keys`).  Plain numbers
    keep the comparison sort, which compares them natively and costs less
    than lowering them.
    """
    dim = len(pts[0])
    if isinstance(pts[0][0], (int, float, np.number)) \
            or any(len(p) != dim for p in pts):
        return None
    keys = []
    for k in range(dim):
        col = np.empty(len(pts), dtype=object)
        col[:] = [p[k] for p in pts]
        keys.append(col)
    try:
        return lower_keys(keys)
    except OperationContractError:
        return None


def hull_contains(points, hull_idx: list[int], q) -> bool:
    """Is ``q`` inside or on the hull given by CCW vertex indices?"""
    h = [points[i] for i in hull_idx]
    if len(h) == 1:
        return tuple(h[0]) == tuple(q)
    if len(h) == 2:
        return orientation(h[0], h[1], q) == 0 and _between(h[0], h[1], q)
    for a, b in zip(h, h[1:] + h[:1]):
        if orientation(a, b, q) < 0:
            return False
    return True


def _between(a, b, q) -> bool:
    lo0, hi0 = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
    lo1, hi1 = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
    return lo0 <= q[0] <= hi0 and lo1 <= q[1] <= hi1


def convex_hull_parallel(machine: Machine, points) -> list[int]:
    """Miller–Stout style parallel hull with full cost accounting.

    Pipeline: one global sort by (x, y, index); then ``log n`` merge
    levels.  At
    each level, sibling groups (disjoint strings of the machine) combine
    their sub-hulls: a broadcast of the partition boundary, a merge of the
    two x-sorted vertex runs, the common-tangent computation (a semigroup +
    Theta(1) local rounds), and a pack of surviving vertices.  Sibling
    merges are simultaneous, so each level is charged once.  On the host a
    merge scans the two groups' hull chains to their common tangents, not
    their points (:func:`_stitch`).
    """
    pts = list(points)
    if not pts:
        raise DegenerateSystemError("hull of an empty point set")
    n = len(pts)
    length = next_pow2(n)

    # Global sort by (x, y, index): object keys support SteadyValue
    # coordinates.  The index makes the key total, so duplicate points and
    # padding slots land in one order on every sorting substrate (the
    # bitonic network is not stable).
    xs = np.empty(length, dtype=object)
    ys = np.empty(length, dtype=object)
    for i in range(length):
        p = pts[min(i, n - 1)]
        xs[i], ys[i] = p[0], p[1]
    with machine.phase("sort"):
        (_, _, order), _ = bitonic_sort(machine, [xs, ys, np.arange(length)])
    order = [int(i) for i in order if i < n]
    orient = orientation_of(pts[0])

    # Merge levels: groups combine pairwise.  A group is its (lower,
    # upper) chain pair; its hull size sets the level's string length.
    groups = [([i], [i]) for i in order]
    while len(groups) > 1:
        merged = []
        level_len = max(2, next_pow2(2 * max(
            len(_hull_of_chains(*g)) for g in groups)))
        with machine.phase("hull-merge"):
            # One simultaneous round of: boundary broadcast, vertex-run
            # merge, tangent semigroup, and pack — charged once per level.
            broadcast(machine, np.zeros(level_len),
                      np.eye(1, level_len, 0, dtype=bool)[0])
            bitonic_merge(machine, np.zeros(level_len))
            semigroup(machine, np.zeros(level_len), np.maximum)
            machine.local(level_len)
            pack(machine, np.ones(level_len, dtype=bool), [np.zeros(level_len)])
        for a, b in zip(groups[::2], groups[1::2]):
            merged.append(_stitch(pts, a, b, orient))
        if len(groups) % 2:
            merged.append(groups[-1])
        groups = merged
    return _hull_of_chains(*groups[0])


def _stitch(pts: list, a: tuple, b: tuple, orient) -> tuple:
    """Merge the chains of two x-separated groups, ``a`` sorting first.

    Every point of ``a`` precedes every point of ``b`` in ``(x, y,
    index)`` order, so Andrew's scan over the union visits ``a``'s points
    and then ``b``'s: the lower chain continues ``a``'s stack with
    ``b``'s chain, and the upper chain (scanned right to left) continues
    ``b``'s stack with ``a``'s.  Only chain vertices can be extreme in the
    union, so (with consistent orientation tests) this is
    :func:`convex_hull` of the union, vertex order included, at the cost
    of a scan to the common tangent rather than a re-sort and re-scan of
    every point.
    A point in both groups (``a``'s last equal to ``b``'s first) keeps
    ``a``'s copy, the first in sorted order, as the oracle's dedupe does.
    """
    a_lower, a_upper = a
    b_lower, b_upper = b
    dup = tuple(pts[a_lower[-1]]) == tuple(pts[b_lower[0]])
    lower = _extend_chain(pts, list(a_lower), b_lower[1:] if dup else b_lower,
                          orient)
    upper = _extend_chain(pts, b_upper[:-1] if dup else list(b_upper),
                          a_upper, orient)
    return lower, upper
