"""Tests for Section 5: steady-state algorithms and the Lemma 5.1 reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.steady import (
    SteadyValue,
    steady_antipodal_pairs,
    steady_closest_pair,
    steady_compare,
    steady_diameter_squared,
    steady_enclosing_rectangle,
    steady_farthest_neighbor,
    steady_farthest_pair,
    steady_hull,
    steady_is_extreme,
    steady_nearest_neighbor,
    steady_points,
    steady_rectangle_snapshot,
)
from repro.errors import DegenerateSystemError
from repro.geometry import convex_hull, dist2, enclosing_rectangle
from repro.kinetics.motion import PointSystem, divergent_system, random_system
from repro.kinetics.polynomial import Polynomial
from repro.machines import hypercube_machine, mesh_machine


def settle_time(system):
    """A time large enough that comparison outcomes have stabilised.

    Checked, not assumed: callers verify agreement at t and 4t.
    """
    return system.horizon() * 50.0


def float_points(system, t):
    return [tuple(p) for p in system.positions(t)]


def assert_stable(fn):
    """Run ``fn(t)`` at two well-separated large times; must agree."""
    __tracebackhide__ = True


class TestSteadyValue:
    def test_total_order_matches_large_t(self):
        a = SteadyValue(Polynomial([100.0, 1.0]))
        b = SteadyValue(Polynomial([0.0, 2.0]))
        assert a < b and b > a and a != b
        assert not a == b

    def test_arithmetic(self):
        a = SteadyValue(Polynomial([1.0, 1.0]))
        b = SteadyValue(Polynomial([2.0]))
        assert (a + b)(3.0) == pytest.approx(6.0)
        assert (a - b)(3.0) == pytest.approx(2.0)
        assert (a * b)(3.0) == pytest.approx(8.0)
        assert (-a)(3.0) == pytest.approx(-4.0)
        assert abs(SteadyValue(Polynomial([0.0, -1.0]))).sign() > 0

    def test_scalar_coercion(self):
        a = SteadyValue(Polynomial([0.0, 1.0]))
        assert a > 1000.0  # t beats any constant eventually
        assert (2 - a).sign() < 0
        assert (3 * a).sign() > 0

    def test_equal_polynomials(self):
        a = SteadyValue(Polynomial([1.0, 2.0]))
        b = SteadyValue(Polynomial([1.0, 2.0]))
        assert a == b and a <= b and a >= b

    def test_steady_compare_function(self):
        assert steady_compare(Polynomial([0.0, 1.0]), Polynomial([99.0])) == 1

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=3),
           st.lists(st.floats(-10, 10), min_size=1, max_size=3))
    @settings(max_examples=80)
    def test_property_order_consistent_with_eval(self, ca, cb):
        a, b = SteadyValue(Polynomial(ca)), SteadyValue(Polynomial(cb))
        t = (a.poly - b.poly).horizon() * 8 + 1
        if a < b:
            assert a(t) <= b(t) + 1e-9 * max(1, abs(b(t)))
        elif a > b:
            assert a(t) >= b(t) - 1e-9 * max(1, abs(b(t)))

    @given(st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e-11, -2e-11, 3.5]),
                    min_size=1, max_size=3),
           st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e-11, -2e-11, 3.5]),
                    min_size=1, max_size=3))
    @settings(max_examples=150)
    def test_compare_is_sign_of_difference(self, ca, cb):
        a, b = SteadyValue(Polynomial(ca)), SteadyValue(Polynomial(cb))
        c = (a - b).sign()
        assert a.compare(b) == c
        assert (a < b, a <= b, a > b, a >= b, a == b) == (
            c < 0, c <= 0, c > 0, c >= 0, c == 0)
        assert a.compare(ca[0]) == (a - ca[0]).sign()


class TestSteadyNeighbors:
    @pytest.mark.parametrize("seed", range(5))
    def test_nearest_matches_large_t(self, seed):
        system = divergent_system(8, seed=seed)
        got = steady_nearest_neighbor(None, system)
        t = settle_time(system)
        for tt in (t, 4 * t):
            pos = system.positions(tt)
            d = np.linalg.norm(pos - pos[0], axis=1)
            d[0] = np.inf
            assert got == int(np.argmin(d)), f"at t={tt}"

    @pytest.mark.parametrize("seed", range(3))
    def test_farthest_matches_large_t(self, seed):
        system = divergent_system(7, seed=seed + 20)
        got = steady_farthest_neighbor(None, system)
        t = settle_time(system)
        pos = system.positions(t)
        d = np.linalg.norm(pos - pos[0], axis=1)
        d[0] = -np.inf
        assert got == int(np.argmax(d))

    def test_machine_agrees_and_charges(self):
        system = divergent_system(8, seed=2)
        want = steady_nearest_neighbor(None, system)
        for mk in (mesh_machine, hypercube_machine):
            m = mk(16)
            assert steady_nearest_neighbor(m, system) == want
            assert m.metrics.time > 0

    def test_nn_cheaper_than_transient_solution(self):
        """Section 5 motivation: steady NN avoids the envelope machinery."""
        from repro.core.neighbors import closest_point_sequence
        system = random_system(16, d=2, k=1, seed=3)
        m1, m2 = mesh_machine(64), mesh_machine(64)
        steady_nearest_neighbor(m1, system)
        closest_point_sequence(m2, system)
        assert m1.metrics.time < m2.metrics.time

    def test_rejects_single_point(self):
        from repro.kinetics.motion import Motion
        with pytest.raises(DegenerateSystemError):
            steady_nearest_neighbor(None, PointSystem(
                [Motion.stationary([0.0, 0.0]),
                 Motion.stationary([1.0, 0.0])]), query=5)


class TestSteadyClosestPair:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_large_t(self, seed):
        system = divergent_system(9, d=2, seed=seed + 5)
        i, j = steady_closest_pair(None, system)
        t = settle_time(system)
        pts = float_points(system, t)
        want_d = min(
            dist2(a, b) for x, a in enumerate(pts) for b in pts[x + 1:]
        )
        assert dist2(pts[i], pts[j]) == pytest.approx(want_d, rel=1e-9)

    def test_machine_charges(self):
        system = divergent_system(8, seed=1)
        m = hypercube_machine(16)
        got = steady_closest_pair(m, system)
        assert got == steady_closest_pair(None, system)
        assert m.metrics.time > 0


class TestSteadyHull:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_float_hull_at_large_t(self, seed):
        system = divergent_system(10, d=2, seed=seed + 30)
        got = sorted(steady_hull(None, system))
        t = settle_time(system)
        for tt in (t, 4 * t):
            want = sorted(convex_hull(float_points(system, tt)))
            assert got == want, f"at t={tt}"

    def test_is_extreme(self):
        system = divergent_system(8, d=2, seed=4)
        hull = steady_hull(None, system)
        for q in range(len(system)):
            assert steady_is_extreme(None, system, q) == (q in hull)

    def test_machine_agrees(self):
        system = divergent_system(9, d=2, seed=7)
        want = sorted(steady_hull(None, system))
        m = mesh_machine(16)
        assert sorted(steady_hull(m, system)) == want
        assert m.metrics.time > 0


class TestSteadyDiameter:
    @pytest.mark.parametrize("seed", range(4))
    def test_farthest_pair_matches_large_t(self, seed):
        system = divergent_system(9, d=2, seed=seed + 40)
        i, j = steady_farthest_pair(None, system)
        t = settle_time(system)
        pts = float_points(system, t)
        want = max(
            dist2(a, b) for x, a in enumerate(pts) for b in pts[x + 1:]
        )
        assert dist2(pts[i], pts[j]) == pytest.approx(want, rel=1e-9)

    def test_diameter_squared_polynomial(self):
        system = divergent_system(7, d=2, seed=3)
        d2 = steady_diameter_squared(None, system)
        i, j = steady_farthest_pair(None, system)
        t = settle_time(system)
        pos = system.positions(t)
        assert d2(t) == pytest.approx(float(np.sum((pos[i] - pos[j]) ** 2)))

    def test_antipodal_pairs_are_hull_indices(self):
        system = divergent_system(8, d=2, seed=9)
        hull = set(steady_hull(None, system))
        for i, j in steady_antipodal_pairs(None, system):
            assert i in hull and j in hull

    def test_machine_agrees(self):
        system = divergent_system(8, d=2, seed=11)
        want = set(steady_farthest_pair(None, system))
        m = hypercube_machine(16)
        assert set(steady_farthest_pair(m, system)) == want
        assert m.metrics.time > 0


class TestSteadyRectangle:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_float_rectangle_at_large_t(self, seed):
        system = divergent_system(10, d=2, seed=seed + 60)
        hull, sup = steady_enclosing_rectangle(None, system)
        t = settle_time(system)
        # Compare achieved area against the float algorithm at large t.
        pts = float_points(system, t)
        poly = [pts[i] for i in hull]
        float_sup = enclosing_rectangle(poly)
        # The steady choice, evaluated at t, attains the float optimum.
        steady_area = (float(sup.area_num.poly(t))
                       / float(sup.len2_den.poly(t)))
        assert steady_area == pytest.approx(float_sup.area(), rel=1e-6)

    def test_snapshot_contains_points(self):
        system = divergent_system(8, d=2, seed=13)
        hull, sup = steady_enclosing_rectangle(None, system)
        t = settle_time(system)
        corners = steady_rectangle_snapshot(system, hull, sup, t)
        pos = system.positions(t)
        scale = np.abs(corners).max()
        for q in pos:
            for a, b in zip(corners, np.roll(corners, -1, axis=0)):
                e = b - a
                crossv = e[0] * (q[1] - a[1]) - e[1] * (q[0] - a[0])
                assert crossv >= -1e-6 * max(1.0, scale)

    def test_machine_charges(self):
        system = divergent_system(8, d=2, seed=17)
        m = mesh_machine(16)
        hull, sup = steady_enclosing_rectangle(m, system)
        assert m.metrics.time > 0

    def test_degenerate_hull_rejected(self):
        from repro.kinetics.motion import Motion
        collinear = PointSystem([
            Motion.linear([float(i), 0.0], [1.0, 0.0]) for i in range(4)
        ])
        with pytest.raises(DegenerateSystemError):
            steady_enclosing_rectangle(None, collinear)
