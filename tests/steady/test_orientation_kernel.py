"""The Lemma 5.1 orientation kernel against the polynomial path.

:func:`repro.core.steady.reduction.steady_orientation` runs the float
list operations behind :func:`repro.geometry.primitives.orientation_by_products`
(four ``Polynomial`` differences, two products in the one product order
of ``Polynomial.__mul__``, one ``steady_compare``) without building the
polynomials.  The polynomial path is the oracle here: the kernel must
agree with it on every input, the near-threshold ones included, and
raise where it raises.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.steady import SteadyValue, steady_hull, steady_points
from repro.core.steady.reduction import steady_orientation
from repro.geometry.primitives import (
    orientation,
    orientation_by_products,
    orientation_of,
)
from repro.kinetics.polynomial import COEFF_EPS, Polynomial
from repro.verify.generators import SYSTEM_KINDS, make_system


def point(x, y):
    """A steady point from two ascending coefficient lists."""
    return (SteadyValue(Polynomial(x)), SteadyValue(Polynomial(y)))


def assert_agrees(o, a, b):
    got = steady_orientation(o, a, b)
    assert got == orientation_by_products(o, a, b)
    return got


def ulps_around(x, k):
    """``x`` and its ``k`` float neighbours on either side."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return sorted(out)


@given(kind=st.sampled_from(sorted(SYSTEM_KINDS)),
       seed=st.integers(0, 10_000), n=st.integers(3, 6),
       k=st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_filtered_orientation_equals_polynomial_path(kind, seed, n, k):
    pts = steady_points(make_system(kind, seed, n, k))
    for o, a, b in itertools.product(pts, repeat=3):
        assert steady_orientation(o, a, b) == orientation_by_products(o, a, b)


@pytest.mark.parametrize("kind", sorted(SYSTEM_KINDS))
def test_generated_hulls_decide_on_floats(kind, monkeypatch):
    # Every orientation a generated hull asks is answered by the kernel,
    # and the oracle answers each of them the same way.
    asked = []

    def recording(o, a, b):
        asked.append((o, a, b))
        return steady_orientation(o, a, b)

    monkeypatch.setattr(SteadyValue, "orientation_kernel",
                        staticmethod(recording))
    for seed in range(3):
        steady_hull(None, make_system(kind, seed, 16))
    assert asked
    for o, a, b in asked:
        assert steady_orientation(o, a, b) == orientation_by_products(o, a, b)


def test_orientation_dispatches_on_the_coordinate_type():
    assert orientation_of(point([0.0], [1.0])) is steady_orientation
    assert orientation_of((0.0, 1.0)) is orientation_by_products
    o, a, b = point([0.0], [0.0]), point([1.0, 1.0], [0.0]), \
        point([0.0], [1.0, 2.0])
    assert orientation(o, a, b) == orientation_by_products(o, a, b) == 1
    assert orientation((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == 1


@pytest.mark.parametrize("sign", [1, -1])
def test_scan_step_within_ulps_of_the_threshold_agrees(sign):
    # lhs = (1 + t)(c + t), rhs = (1 + t)^2: equal tops, then the scan's
    # degree-1 step is (1 + c) - 2, a few ulps either side of
    # sign * COEFF_EPS.  Both answers occur across the neighbourhood.
    o = point([0.0], [0.0])
    outcomes = set()
    for c in ulps_around(1.0 + sign * COEFF_EPS, 3):
        a = point([1.0, 1.0], [1.0, 1.0])
        b = point([1.0, 1.0], [c, 1.0])
        outcomes.add(assert_agrees(o, a, b))
    assert outcomes == {0, sign}


def test_trim_of_a_product_coefficient_within_ulps_agrees():
    # lhs = (1 + 1e-6 t)(x + 1e-6 t) against rhs = 0: the top 1e-12 is
    # trimmed, then whether the trim also drops the degree-1 coefficient
    # 1e-6 (1 + x), within ulps of COEFF_EPS, decides the answer.
    o = point([0.0], [0.0])
    for x in ulps_around(-1.0 + COEFF_EPS / 1e-6, 3):
        a = point([1.0, 1e-6], [0.0])
        b = point([1.0], [x, 1e-6])
        assert_agrees(o, a, b)


@pytest.mark.parametrize("shift", [0.0, 5.0, -3e5])
def test_exact_cancellation_at_large_magnitude_agrees(shift):
    # (1e6 + 0.1 t)(1e6 + 0.3 t) against (1e6 + 0.3 t)(1e6 + 0.1 t): the
    # products are equal in exact arithmetic, so the answer rests on the
    # rounding of the degree-1 coefficients (~4e5, far above COEFF_EPS),
    # which the kernel and the oracle share.  The shifted origins keep
    # every difference exact.
    o = point([shift], [shift])
    a = point([1e6 + shift, 0.1], [1e6 + shift, 0.3])
    b = point([1e6 + shift, 0.1], [1e6 + shift, 0.3])
    assert_agrees(o, a, b)


def test_a_product_rounding_at_the_threshold_agrees():
    # lhs = p * q, rhs = 1 * r, where r copies the plain-sum product's
    # coefficients except the degree-1 one, set so that the scan's step
    # there is 9.99999e-12: a tie.  A product summed in another order
    # (np.convolve's dot kernel can give ...973 instead of ...975 for
    # that coefficient) makes the step 1.0000001e-11 and answers +1, so
    # both sides must run the one product order.
    p = [0.1257302210933933, -0.1321048632913019, 0.6404226504432821]
    q = [0.10490011715303971, -0.535669373161111, 0.36159505490948474]
    r = [0.013189114922374541, -0.08120764436624973, 0.18340836656979365,
         -0.39082326501675846, 0.23157366345231634]
    o, a, b = point([0.0], [0.0]), point(p, [1.0]), point(r, q)
    assert steady_orientation(o, a, b) == orientation_by_products(o, a, b) \
        == 0


def test_overflowing_products_raise_as_the_oracle():
    # Finite differences whose products overflow, then a difference that
    # overflows itself (1e308 - -1e308): that makes a product non-finite
    # too, so the kernel raises the oracle's error.
    for o, a, b in [
        (point([0.0], [0.0]), point([1e200], [0.0]), point([0.0], [1e200])),
        (point([-1e308], [0.0]), point([1e308], [1.0]),
         point([1.0], [1.0])),
    ]:
        with pytest.raises(ValueError, match="finite"):
            orientation_by_products(o, a, b)
        with pytest.raises(ValueError, match="finite"):
            steady_orientation(o, a, b)


def test_mixed_coordinate_types_run_the_polynomial_path():
    o = (SteadyValue(Polynomial([0.0])), 0.0)
    a, b = point([1.0, 1.0], [0.0]), point([0.0], [1.0, 2.0])
    assert assert_agrees(o, a, b) == 1


def test_identical_and_collinear_points_decide_zero_on_floats():
    p = point([1.0, 2.0], [3.0, -1.0])
    q = point([2.0, 4.0], [6.0, -2.0])
    r = point([3.0, 6.0], [9.0, -3.0])
    assert steady_orientation(p, p, q) == 0
    assert steady_orientation(p, q, r) == 0
    assert orientation_by_products(p, q, r) == 0


def test_trimmed_difference_tops_count_as_zero():
    # a.x - o.x is 5e-12 t, trimmed to the zero polynomial, so lhs is
    # zero like rhs.  Multiplied untrimmed by b.y - o.y = 1e6 t it would
    # leave a top coefficient 5e-6, far outside COEFF_EPS, and answer +1.
    o = point([0.0, 1.0 - 5e-12], [0.0])
    a = point([0.0, 1.0], [0.0])
    b = point([0.0], [0.0, 1e6])
    assert steady_orientation(o, a, b) == orientation_by_products(o, a, b) \
        == 0


def test_trimmed_product_tops_count_as_zero():
    # Both products' tops (0.8e-11 and -0.5e-11) are within COEFF_EPS, so
    # they are trimmed: the scan starts one degree lower, where lhs
    # (-7e-6) is below rhs (-4e-6).  Comparing the untrimmed tops instead
    # (a difference of 1.3e-11) would answer +1.
    o = point([0.0], [0.0])
    a = point([1.0, 0.8e-5], [1.0, -0.5e-5])
    b = point([1.0, 1e-6], [-1.0, 1e-6])
    assert steady_orientation(o, a, b) == orientation_by_products(o, a, b) \
        == -1
