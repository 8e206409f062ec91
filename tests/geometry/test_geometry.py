"""Tests for the static geometry substrate (convex hull, closest pair,
antipodal pairs, enclosing rectangle) against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.steady.reduction import steady_points
from repro.errors import DegenerateSystemError
from repro.geometry import (
    antipodal_pairs,
    antipodal_pairs_brute,
    antipodal_pairs_parallel,
    closest_pair,
    closest_pair_brute,
    closest_pair_parallel,
    convex_hull,
    convex_hull_parallel,
    cross,
    diameter_pair,
    dist2,
    enclosing_rectangle,
    enclosing_rectangle_parallel,
    hull_contains,
    orientation,
    rectangle_corners,
    sign_of,
)
from repro.geometry.rectangle import _enclosing_rectangle_scan
from repro.machines import hypercube_machine, mesh_machine
from repro.report.table4 import SIZES, circle, circle_polygon
from repro.verify.generators import SYSTEM_KINDS, make_system

# Grid-quantised coordinates: avoids denormal-scale inputs whose cross
# products underflow double precision (a float artifact, not an algorithm
# property worth testing).
finite = st.integers(min_value=-10000, max_value=10000).map(lambda v: v / 100.0)
point = st.tuples(finite, finite)


def rand_points(n, seed):
    rng = np.random.default_rng(seed)
    return [tuple(p) for p in rng.uniform(-50, 50, (n, 2))]


def circle_points(n, r=10.0, jitter=0.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        th = 2 * math.pi * i / n
        rr = r + (rng.uniform(-jitter, jitter) if jitter else 0.0)
        out.append((rr * math.cos(th), rr * math.sin(th)))
    return out


def steady_point_sets(kind):
    """Steady-state points of one system generator, k = 1 and k = 2."""
    return [steady_points(make_system(kind, seed, n=n, k=k))
            for k in (1, 2) for seed in range(3) for n in (5, 12, 30)]


#: Point sets on which the parallel hull must return the serial hull's
#: exact vertex order.
HULL_CASES = {
    "random": lambda: [rand_points(33, seed) for seed in range(4)],
    "duplicates": lambda: [
        [(i % 3, i % 2) for i in range(12)],
        [(i % 4, i % 3) for i in range(21)] + [(0, 0)] * 3,
        [p for p in rand_points(10, 5) for _ in range(3)],
    ],
    "collinear": lambda: [
        [(i, 2 * i) for i in range(9)],
        [(0, i % 5) for i in range(11)],
        [(float(i % 4), 1.0) for i in range(13)],
    ],
    "single-point": lambda: [[(5, 5)], [(1.5, -2.0)] * 6],
    "circle": lambda: [circle_points(n, seed=n) for n in (7, 16, 50)]
    + [circle(n, seed=n) for n in SIZES[:2]],
    **{f"steady-{kind}": (lambda kind=kind: steady_point_sets(kind))
       for kind in sorted(SYSTEM_KINDS)},
}


def hull_polygons(point_sets):
    """The CCW hull polygon of each point set with at least 3 vertices."""
    polys = ([pts[i] for i in convex_hull(pts)] for pts in point_sets)
    return [poly for poly in polys if len(poly) >= 3]


def rotations(poly):
    return [poly[r:] + poly[:r] for r in range(len(poly))]


def parallel_edge_polygons():
    """Square, hexagon and octagon, regular (float) and with exactly
    parallel opposite edges (integer), so supports tie; every rotation
    puts a tie across the wrap to vertex 0."""
    exact = [[(0, 0), (2, 0), (2, 2), (0, 2)],
             [(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)],
             [(1, 0), (2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1)]]
    regular = [[(math.cos(2 * math.pi * i / m), math.sin(2 * math.pi * i / m))
                for i in range(m)] for m in (4, 6, 8)]
    return [rot for poly in exact + regular for rot in rotations(poly)]


#: Convex polygons on which the calipers must return the scan's supports.
#: (Crossing traffic is left out: its steady hull is a segment.)
RECTANGLE_CASES = {
    "random-hulls": lambda: hull_polygons(
        rand_points(3 + seed % 57, seed) for seed in range(60)),
    "table4-circles": lambda: hull_polygons(
        circle(n, seed=n) for n in SIZES) + [circle_polygon(n) for n in SIZES],
    "parallel-edges": parallel_edge_polygons,
    **{f"steady-{kind}": (lambda kind=kind: hull_polygons(
        steady_point_sets(kind)))
       for kind in sorted(SYSTEM_KINDS) if kind != "crossing"},
}


class TestOrientation:
    def test_ccw(self):
        assert orientation((0, 0), (1, 0), (0, 1)) == 1
        assert orientation((0, 0), (0, 1), (1, 0)) == -1
        assert orientation((0, 0), (1, 1), (2, 2)) == 0

    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                    min_size=3, max_size=3))
    @settings(max_examples=200)
    def test_is_sign_of_cross(self, pts):
        assert orientation(*pts) == sign_of(cross(*pts))

    @given(st.lists(st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e-11]),
                             min_size=1, max_size=2),
                    min_size=6, max_size=6))
    @settings(max_examples=150)
    def test_is_sign_of_cross_at_steady_state(self, rows):
        from repro.core.steady import SteadyValue
        from repro.kinetics.polynomial import Polynomial

        v = [SteadyValue(Polynomial(r)) for r in rows]
        pts = [(v[0], v[1]), (v[2], v[3]), (v[4], v[5])]
        assert orientation(*pts) == cross(*pts).sign()

    def test_dist2(self):
        assert dist2((0, 0), (3, 4)) == 25


class TestConvexHull:
    def test_square_with_interior(self):
        pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (1, 3)]
        hull = convex_hull(pts)
        assert sorted(hull) == [0, 1, 2, 3]

    def test_ccw_orientation(self):
        pts = rand_points(30, 1)
        hull = convex_hull(pts)
        h = [pts[i] for i in hull]
        for a, b, c in zip(h, h[1:] + h[:1], h[2:] + h[:2]):
            assert orientation(a, b, c) == 1

    def test_collinear_points_excluded(self):
        pts = [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2), (1, 2)]
        hull = convex_hull(pts)
        assert sorted(hull) == [0, 2, 3, 4]

    def test_all_collinear(self):
        pts = [(0, 0), (1, 1), (2, 2), (3, 3)]
        hull = convex_hull(pts)
        assert sorted(hull) == [0, 3]

    def test_duplicates_tolerated(self):
        pts = [(0, 0), (0, 0), (1, 0), (0, 1)]
        hull = convex_hull(pts)
        assert len(hull) == 3

    def test_single_point(self):
        assert convex_hull([(5, 5)]) == [0]

    def test_empty_raises(self):
        with pytest.raises(DegenerateSystemError):
            convex_hull([])

    def test_hull_contains_all_points(self):
        pts = rand_points(40, 3)
        hull = convex_hull(pts)
        for p in pts:
            assert hull_contains(pts, hull, p)

    @given(st.lists(point, min_size=3, max_size=25, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_property_hull_invariants(self, pts):
        hull = convex_hull(pts)
        # Every input point inside; every hull vertex is an input point;
        # hull is convex (strict turns).
        h = [pts[i] for i in hull]
        if len(hull) >= 3:
            for a, b, c in zip(h, h[1:] + h[:1], h[2:] + h[:2]):
                assert orientation(a, b, c) == 1
        for p in pts:
            assert hull_contains(pts, hull, p)

    @pytest.mark.parametrize("case", list(HULL_CASES))
    def test_parallel_matches_serial(self, case):
        # The exact vertex list, order included, not just the vertex set.
        for pts in HULL_CASES[case]():
            want = convex_hull(pts)
            for mk in (mesh_machine, hypercube_machine):
                m = mk(64)
                assert convex_hull_parallel(m, pts) == want
                assert m.metrics.time > 0 or len(pts) == 1

    @pytest.mark.usefixtures("plan_mode")
    @pytest.mark.parametrize("randomized", [False, True])
    def test_parallel_matches_serial_on_duplicate_points(self, randomized):
        # Duplicates and padding slots tie on (x, y); the unstable bitonic
        # network once kept a different duplicate than the oracle.
        for pts in ([(i % 3, i % 2) for i in range(12)],
                    [(i % 4, i % 3) for i in range(21)] + [(0, 0)] * 3):
            want = convex_hull(pts)
            assert convex_hull_parallel(mesh_machine(64), pts) == want
            cube = hypercube_machine(64, randomized=randomized)
            assert convex_hull_parallel(cube, pts) == want

    def test_parallel_cost_scaling_mesh(self):
        def cost(n):
            m = mesh_machine(4096)
            convex_hull_parallel(m, circle_points(n, seed=2))
            return m.metrics.time
        ratio = cost(1024) / cost(64)
        assert 2.0 < ratio < 10.0  # ~sqrt(16)=4 with slack


class TestClosestPair:
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 40, 100])
    def test_matches_brute(self, n):
        pts = rand_points(n, n)
        i, j = closest_pair(pts)
        bi, bj = closest_pair_brute(pts)
        assert dist2(pts[i], pts[j]) == pytest.approx(dist2(pts[bi], pts[bj]))

    def test_requires_two(self):
        with pytest.raises(DegenerateSystemError):
            closest_pair([(0, 0)])

    def test_duplicate_points_distance_zero(self):
        pts = [(0, 0), (5, 5), (5, 5), (9, 1)]
        i, j = closest_pair(pts)
        assert dist2(pts[i], pts[j]) == 0

    @given(st.lists(point, min_size=2, max_size=30, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_brute(self, pts):
        i, j = closest_pair(pts)
        bi, bj = closest_pair_brute(pts)
        assert dist2(pts[i], pts[j]) == pytest.approx(
            dist2(pts[bi], pts[bj]), rel=1e-9
        )

    def test_parallel_matches_and_charges(self):
        pts = rand_points(50, 7)
        m = mesh_machine(64)
        i, j = closest_pair_parallel(m, pts)
        bi, bj = closest_pair_brute(pts)
        assert dist2(pts[i], pts[j]) == pytest.approx(dist2(pts[bi], pts[bj]))
        assert m.metrics.time > 0


class TestAntipodal:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 13])
    def test_matches_brute_on_circles(self, n):
        poly = circle_points(n, jitter=1.0, seed=n)
        hull = convex_hull(poly)
        poly = [poly[i] for i in hull]
        got = antipodal_pairs(poly)
        want = antipodal_pairs_brute(poly)
        assert set(got) == set(want)

    def test_square_antipodal(self):
        poly = [(0, 0), (1, 0), (1, 1), (0, 1)]
        pairs = set(antipodal_pairs(poly))
        # Both diagonals must be present (opposite corners).
        assert (0, 2) in pairs and (1, 3) in pairs

    def test_two_vertices(self):
        assert antipodal_pairs([(0, 0), (1, 1)]) == [(0, 1)]

    def test_needs_two(self):
        with pytest.raises(DegenerateSystemError):
            antipodal_pairs([(0, 0)])

    def test_diameter_matches_brute_max(self):
        for seed in range(5):
            pts = rand_points(25, seed + 100)
            hull = convex_hull(pts)
            poly = [pts[i] for i in hull]
            i, j = diameter_pair(poly)
            want = max(
                dist2(a, b) for x, a in enumerate(poly) for b in poly[x + 1:]
            )
            assert dist2(poly[i], poly[j]) == pytest.approx(want)

    def test_diameter_is_antipodal_shamos(self):
        """Shamos: a farthest pair must be an antipodal pair."""
        pts = circle_points(11, jitter=2.0, seed=3)
        poly = [pts[i] for i in convex_hull(pts)]
        i, j = diameter_pair(poly)
        assert (min(i, j), max(i, j)) in set(antipodal_pairs(poly))

    def test_parallel_charges_and_matches(self):
        poly = circle_points(16, seed=5)
        m = hypercube_machine(16)
        got = antipodal_pairs_parallel(m, poly)
        assert set(got) == set(antipodal_pairs(poly))
        assert m.metrics.time > 0

    def test_pairs_per_vertex_bounded(self):
        """Lemma 5.5: no PE (edge) holds more than four pairs."""
        for n in (6, 9, 16):
            poly = circle_points(n, jitter=0.5, seed=n)
            poly = [poly[i] for i in convex_hull(poly)]
            pairs = antipodal_pairs(poly)
            # Total pairs is O(m): at most 3m/2 for a convex polygon.
            assert len(pairs) <= 2 * len(poly)


class TestEnclosingRectangle:
    def brute_min_area(self, poly):
        """Try every edge direction exhaustively with numpy."""
        pts = np.array(poly, dtype=float)
        best = math.inf
        m = len(poly)
        for e in range(m):
            a, b = pts[e], pts[(e + 1) % m]
            d = b - a
            d = d / np.linalg.norm(d)
            nrm = np.array([-d[1], d[0]])
            proj = (pts - a) @ d
            h = (pts - a) @ nrm
            area = (proj.max() - proj.min()) * (h.max() - h.min())
            best = min(best, area)
        return best

    @pytest.mark.parametrize("case", list(RECTANGLE_CASES))
    def test_calipers_match_scan(self, case):
        # Every field, the tie-broken support indices included.
        polys = RECTANGLE_CASES[case]()
        assert polys
        for poly in polys:
            got = enclosing_rectangle(poly)
            want = _enclosing_rectangle_scan(poly)
            for field in ("edge", "far", "left", "right", "area_num",
                          "len2_den"):
                assert getattr(got, field) == getattr(want, field), field

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute(self, seed):
        pts = rand_points(20, seed + 50)
        poly = [pts[i] for i in convex_hull(pts)]
        sup = enclosing_rectangle(poly)
        assert sup.area() == pytest.approx(self.brute_min_area(poly), rel=1e-9)

    def test_square_optimal(self):
        poly = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
        sup = enclosing_rectangle(poly)
        assert sup.area() == pytest.approx(4.0)

    def test_corners_contain_polygon(self):
        pts = rand_points(15, 9)
        poly = [pts[i] for i in convex_hull(pts)]
        sup = enclosing_rectangle(poly)
        corners = rectangle_corners(poly, sup)
        # All polygon points inside the rectangle (within float tolerance:
        # support vertices sit exactly on the boundary).
        for p in poly:
            q = np.array(p, dtype=float)
            for a, b in zip(corners, np.roll(corners, -1, axis=0)):
                e = b - a
                crossv = e[0] * (q[1] - a[1]) - e[1] * (q[0] - a[0])
                assert crossv >= -1e-6 * max(1.0, np.abs(corners).max())

    def test_needs_three(self):
        with pytest.raises(DegenerateSystemError):
            enclosing_rectangle([(0, 0), (1, 1)])

    def test_parallel_charges(self):
        poly = circle_points(12, seed=2)
        m = mesh_machine(16)
        sup = enclosing_rectangle_parallel(m, poly)
        assert sup.area() == pytest.approx(enclosing_rectangle(poly).area())
        assert m.metrics.time > 0
