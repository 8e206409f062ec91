"""Unit tests for repro.kinetics.polynomial."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kinetics.polynomial import ONE, T, ZERO, Polynomial

coeff = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
small_poly = st.lists(coeff, min_size=1, max_size=5).map(Polynomial)


class TestConstruction:
    def test_trims_trailing_zeros(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1

    def test_zero_polynomial_has_degree_zero(self):
        assert Polynomial([0.0, 0.0]).degree == 0
        assert Polynomial([0.0]).is_zero()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Polynomial([])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Polynomial([float("nan")])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Polynomial(np.zeros((2, 2)))

    def test_constant_and_identity(self):
        assert Polynomial.constant(3.0)(17.0) == 3.0
        assert Polynomial.identity()(4.5) == 4.5

    def test_from_roots(self):
        p = Polynomial.from_roots([1.0, 2.0], leading=3.0)
        assert p(1.0) == pytest.approx(0.0)
        assert p(2.0) == pytest.approx(0.0)
        assert p.leading == pytest.approx(3.0)

    def test_coeffs_are_read_only(self):
        p = Polynomial([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0


class TestEvaluation:
    def test_horner_matches_numpy_polyval(self):
        p = Polynomial([1.0, -2.0, 3.0, 0.5])
        ts = np.linspace(-3, 3, 17)
        expected = np.polyval(p.coeffs[::-1], ts)
        np.testing.assert_allclose(p(ts), expected)

    def test_scalar_returns_float(self):
        assert isinstance(Polynomial([1.0, 1.0])(2.0), float)

    def test_vector_returns_array(self):
        out = Polynomial([1.0, 1.0])(np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [2.0, 3.0])


class TestArithmetic:
    def test_add_sub(self):
        p = Polynomial([1.0, 2.0])
        q = Polynomial([0.0, 0.0, 3.0])
        assert (p + q).degree == 2
        assert (p + q)(2.0) == pytest.approx(p(2.0) + q(2.0))
        assert (p - q)(2.0) == pytest.approx(p(2.0) - q(2.0))

    def test_scalar_coercion(self):
        p = Polynomial([1.0, 1.0])
        assert (p + 2)(1.0) == pytest.approx(4.0)
        assert (2 + p)(1.0) == pytest.approx(4.0)
        assert (2 - p)(1.0) == pytest.approx(0.0)
        assert (3 * p)(1.0) == pytest.approx(6.0)

    def test_coercion_rejects_strings(self):
        with pytest.raises(TypeError):
            Polynomial([1.0]) + "x"

    def test_mul(self):
        p = Polynomial([1.0, 1.0])  # 1 + t
        q = Polynomial([-1.0, 1.0])  # -1 + t
        r = p * q  # t^2 - 1
        assert r.degree == 2
        assert r(3.0) == pytest.approx(8.0)

    def test_pow(self):
        p = Polynomial([1.0, 1.0])
        assert (p**3)(1.0) == pytest.approx(8.0)
        assert (p**0)(5.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            p ** (-1)

    def test_compose(self):
        p = Polynomial([0.0, 0.0, 1.0])  # t^2
        inner = Polynomial([1.0, 1.0])  # t + 1
        assert p.compose(inner)(2.0) == pytest.approx(9.0)

    def test_derivative(self):
        p = Polynomial([1.0, 2.0, 3.0])  # 1 + 2t + 3t^2
        d = p.derivative()
        assert d(2.0) == pytest.approx(2.0 + 12.0)
        assert ZERO.derivative().is_zero()

    @given(small_poly, small_poly, st.floats(min_value=-3, max_value=3))
    @settings(max_examples=100)
    def test_ring_laws_pointwise(self, p, q, t):
        assert (p + q)(t) == pytest.approx(p(t) + q(t), abs=1e-6, rel=1e-6)
        assert (p * q)(t) == pytest.approx(p(t) * q(t), abs=1e-4, rel=1e-5)
        assert (p - q)(t) == pytest.approx(p(t) - q(t), abs=1e-6, rel=1e-6)


class TestEqualityHash:
    def test_eq_and_hash(self):
        assert Polynomial([1.0, 2.0]) == Polynomial([1.0, 2.0, 0.0])
        assert hash(Polynomial([1.0, 2.0])) == hash(Polynomial([1.0, 2.0, 0.0]))

    def test_neq(self):
        assert Polynomial([1.0]) != Polynomial([2.0])
        assert Polynomial([1.0]).__eq__(42) is NotImplemented


class TestSteadyState:
    def test_sign_at_infinity(self):
        assert Polynomial([5.0, -1.0]).sign_at_infinity() == -1
        assert Polynomial([-5.0, 1.0]).sign_at_infinity() == 1
        assert ZERO.sign_at_infinity() == 0

    def test_steady_compare_matches_large_t(self):
        p = Polynomial([100.0, 1.0])
        q = Polynomial([0.0, 2.0])
        # q overtakes p eventually.
        assert p.steady_compare(q) == -1
        assert q.steady_compare(p) == 1
        assert p.steady_compare(p) == 0

    @given(small_poly, small_poly)
    @settings(max_examples=100)
    def test_steady_compare_consistent_with_horizon_sample(self, p, q):
        c = p.steady_compare(q)
        t = (p - q).horizon() * 4.0 + 1.0
        diff = p(t) - q(t)
        if c == 0:
            assert abs(diff) < 1e-6 * max(1.0, abs(p(t)))
        elif c < 0:
            assert diff < 1e-9 * max(1.0, abs(p(t)), abs(q(t)))
        else:
            assert diff > -1e-9 * max(1.0, abs(p(t)), abs(q(t)))

    def test_horizon_bounds_roots(self):
        p = Polynomial.from_roots([3.0, 17.0, -40.0])
        assert p.horizon() >= 40.0


class TestRoots:
    def test_linear(self):
        assert Polynomial([-4.0, 2.0]).real_roots() == [pytest.approx(2.0)]
        assert Polynomial([4.0, 2.0]).real_roots() == []  # root at -2 < 0

    def test_quadratic_both_roots(self):
        p = Polynomial.from_roots([1.0, 3.0])
        assert p.real_roots() == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_quadratic_no_real_roots(self):
        assert Polynomial([1.0, 0.0, 1.0]).real_roots() == []

    def test_quadratic_double_root(self):
        p = Polynomial.from_roots([2.0, 2.0])
        roots = p.real_roots()
        assert len(roots) == 1
        assert roots[0] == pytest.approx(2.0)

    def test_quadratic_stability_large_spread(self):
        # roots 1e-3 and 1e3: naive formula loses the small root.
        p = Polynomial.from_roots([1e-3, 1e3])
        roots = p.real_roots()
        assert roots[0] == pytest.approx(1e-3, rel=1e-6)
        assert roots[1] == pytest.approx(1e3, rel=1e-6)

    def test_quartic(self):
        p = Polynomial.from_roots([0.5, 1.5, 2.5, 7.0])
        roots = p.real_roots()
        assert len(roots) == 4
        np.testing.assert_allclose(roots, [0.5, 1.5, 2.5, 7.0], rtol=1e-6)

    def test_interval_filter(self):
        p = Polynomial.from_roots([1.0, 5.0, 9.0])
        assert p.real_roots(2.0, 8.0) == [pytest.approx(5.0)]

    def test_degree_zero_and_zero_poly(self):
        assert Polynomial([3.0]).real_roots() == []
        assert ZERO.real_roots() == []

    def test_dedupes_close_roots(self):
        p = Polynomial.from_roots([1.0, 1.0 + 1e-12])
        assert len(p.real_roots()) == 1

    @given(st.lists(st.floats(min_value=0.1, max_value=20), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_roots_recovered_from_factored_form(self, roots):
        roots = sorted(roots)
        # Separate clustered roots: dedup expectation gets fuzzy otherwise.
        for a, b in zip(roots, roots[1:]):
            if b - a < 1e-3:
                return
        p = Polynomial.from_roots(roots)
        found = p.real_roots()
        assert len(found) == len(roots)
        np.testing.assert_allclose(found, roots, rtol=1e-4, atol=1e-6)

    def test_sign_changes_excludes_touch_points(self):
        # (t-2)^2 touches zero without sign change.
        p = Polynomial.from_roots([2.0, 2.0])
        assert p.sign_changes_on(0.0, 10.0) == []
        q = Polynomial.from_roots([2.0])
        assert q.sign_changes_on(0.0, 10.0) == [pytest.approx(2.0)]


class TestConstants:
    def test_module_constants(self):
        assert ZERO.is_zero()
        assert ONE(123.0) == 1.0
        assert T(7.0) == 7.0


def _bits(p: Polynomial) -> list[str]:
    return [float(c).hex() for c in p.coeffs]


#: Offsets that land a coefficient difference on either side of COEFF_EPS.
near_eps = st.sampled_from([0.0, 0.0, 5e-12, -5e-12, 1e-11, -1e-11,
                            2e-11, -2e-11, 1e-3])


class TestPlainFloatKernel:
    """The float-list kernel against the NumPy formulas it replaced."""

    @given(small_poly, small_poly)
    @settings(max_examples=200)
    @example(Polynomial([1.0]), Polynomial([2.0, -0.0, 3.0]))
    def test_add_neg_bit_identical_to_numpy(self, p, q):
        # The example: NumPy's zero-filled sum turns the -0.0 past the
        # shorter operand into +0.0.
        n = max(p.degree, q.degree) + 1
        a = np.zeros(n)
        a[: p.degree + 1] = p.coeffs
        a[: q.degree + 1] += q.coeffs
        assert _bits(p + q) == _bits(Polynomial(a))
        assert _bits(-p) == _bits(Polynomial(-p.coeffs))

    @given(small_poly)
    @settings(max_examples=200)
    def test_derivative_and_horizon_bit_identical_to_numpy(self, p):
        c = p.coeffs
        if p.degree == 0:
            assert p.derivative().is_zero()
            return
        want = Polynomial(c[1:] * np.arange(1, len(c)))
        assert _bits(p.derivative()) == _bits(want)
        bound = 1.0 + float(np.max(np.abs(c[:-1]))) / abs(p.leading)
        assert p.horizon() == max(1.0, bound)

    @given(small_poly, st.lists(near_eps, min_size=1, max_size=5))
    @settings(max_examples=300)
    def test_steady_compare_equals_sign_of_difference(self, p, offsets):
        cl = list(p.coeffs) + [0.0] * max(0, len(offsets) - p.degree - 1)
        q = Polynomial([c + d for c, d in zip(cl, offsets + [0.0] * len(cl))])
        for x, y in ((p, q), (q, p), (p, p)):
            assert x.steady_compare(y) == (x - y).sign_at_infinity()

    def test_steady_compare_scalar_operand(self):
        p = Polynomial([2.0])
        assert p.steady_compare(2) == 0
        assert p.steady_compare(1.0) == 1
        assert Polynomial([0.0, -1e-12, -1.0]).steady_compare(0.0) == -1

    @given(small_poly, st.lists(near_eps, min_size=1, max_size=5))
    @settings(max_examples=300)
    def test_eq_matches_allclose(self, p, offsets):
        q = Polynomial([c + d for c, d in zip(p.coeffs, offsets + [0.0] * 5)])
        want = p.degree == q.degree and bool(
            np.allclose(p.coeffs, q.coeffs, rtol=1e-9, atol=1e-11))
        assert (p == q) is want
        assert (q == p) is (p.degree == q.degree and bool(
            np.allclose(q.coeffs, p.coeffs, rtol=1e-9, atol=1e-11)))

    def test_array_and_hash_are_built_on_first_use(self):
        p = Polynomial([1.0, 2.0, 3.0])
        d = p - Polynomial([0.5])
        assert d._arr is None and d._hash is None
        arr = d.coeffs
        assert arr is d.coeffs
        assert arr.dtype == np.float64 and not arr.flags.writeable
        assert arr.tolist() == [0.5, 2.0, 3.0]
        h = hash(d)
        assert d._hash == h == hash(Polynomial([0.5, 2.0, 3.0]))

    def test_coefficients_are_plain_floats(self):
        for p in (Polynomial(np.array([1, 2])), Polynomial([1, 2]),
                  Polynomial(np.array([1.0, 2.0], dtype=np.float32))):
            assert [type(c) for c in p._cl] == [float, float]
            assert p.coeffs.dtype == np.float64
        assert type(Polynomial([1.0, 2.0]).leading) is float
        assert Polynomial([-4.0, 2.0]).real_roots() == [2.0]
        assert all(type(r) is float
                   for r in Polynomial.from_roots([1.0, 3.0]).real_roots())

    def test_pickle_round_trip(self):
        import pickle

        p = Polynomial([1.0, -2.0, 0.5])
        hash(p)
        p.coeffs
        for q in (p, Polynomial([3.0, 4.0])):
            r = pickle.loads(pickle.dumps(q))
            assert r == q and hash(r) == hash(q) and r._cl == q._cl

    def test_overflow_still_rejected(self):
        big = Polynomial([1e308])
        with pytest.raises(ValueError):
            big + big


def _product_reference(a: list, b: list) -> list:
    """Coefficient ``k`` of ``a * b``: ``a[lo]*b[k-lo] + a[lo+1]*b[k-lo-1]
    + ...``, ascending index of ``a``, added left to right."""
    out = []
    for k in range(len(a) + len(b) - 1):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        s = a[lo] * b[k - lo]
        for i in range(lo + 1, hi + 1):
            s = s + a[i] * b[k - i]
        out.append(s)
    return out


class TestProductOrder:
    """``__mul__`` sums every coefficient in one fixed order, whatever the
    host's BLAS build would do."""

    def test_degree_two_product_is_the_plain_sum(self):
        # np.convolve can return -0.08120764435624973 here: its dot kernel
        # fuses and reorders the two terms of the degree-1 coefficient.
        p = Polynomial([0.1257302210933933, -0.1321048632913019,
                        0.6404226504432821])
        q = Polynomial([0.10490011715303971, -0.535669373161111,
                        0.36159505490948474])
        assert (p * q)._cl[1] == -0.08120764435624975

    @given(small_poly, small_poly)
    @settings(max_examples=300)
    @example(Polynomial([1.0, -0.0]), Polynomial([-0.0, 2.0]))
    def test_mul_is_the_ascending_left_to_right_sum(self, p, q):
        want = Polynomial(_product_reference(p._cl, q._cl))
        assert _bits(p * q) == _bits(want)
