"""The Lemma 5.1 orientation kernel against the polynomial path.

:func:`repro.core.steady.reduction.steady_orientation` decides the
orientation of steady points on plain float coefficient lists whenever
its error bounds prove the answer of
:func:`repro.geometry.primitives.orientation_by_products` (four
``Polynomial`` differences, two ``np.convolve`` products, one
``steady_compare``), and otherwise runs that path.  The polynomial path
is the oracle here: the kernel must agree on every input, decide the
generated systems on floats, and hand every near-threshold case to the
oracle (``steady.fallbacks`` rises).
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
from repro.trace.registry import get_counter
from repro.verify.generators import SYSTEM_KINDS, make_system

FILTERED = get_counter("steady.filtered")
FALLBACKS = get_counter("steady.fallbacks")


def point(x, y):
    """A steady point from two ascending coefficient lists."""
    return (SteadyValue(Polynomial(x)), SteadyValue(Polynomial(y)))


def assert_falls_back_and_agrees(o, a, b):
    before = FALLBACKS.value
    got = steady_orientation(o, a, b)
    assert FALLBACKS.value == before + 1
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
def test_generated_hulls_decide_on_floats(kind):
    # The served and reported systems sit far from the thresholds: their
    # hulls never need the polynomial path.
    before = FALLBACKS.value, FILTERED.value
    for seed in range(3):
        steady_hull(None, make_system(kind, seed, 16))
    assert FALLBACKS.value == before[0]
    assert FILTERED.value > before[1]


def test_orientation_dispatches_on_the_coordinate_type():
    assert orientation_of(point([0.0], [1.0])) is steady_orientation
    assert orientation_of((0.0, 1.0)) is orientation_by_products
    o, a, b = point([0.0], [0.0]), point([1.0, 1.0], [0.0]), \
        point([0.0], [1.0, 2.0])
    before = FILTERED.value
    assert orientation(o, a, b) == orientation_by_products(o, a, b) == 1
    assert FILTERED.value == before + 1
    assert orientation((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == 1


@pytest.mark.parametrize("sign", [1, -1])
def test_scan_step_within_ulps_of_the_threshold_falls_back(sign):
    # lhs = (1 + t)(c + t), rhs = (1 + t)^2: equal tops, then the scan's
    # degree-1 step is (1 + c) - 2, a few ulps either side of
    # sign * COEFF_EPS.  (Single-term coefficients are the correctly
    # rounded product on either path, so only a sum can be undecided.)
    o = point([0.0], [0.0])
    outcomes = set()
    for c in ulps_around(1.0 + sign * COEFF_EPS, 3):
        a = point([1.0, 1.0], [1.0, 1.0])
        b = point([1.0, 1.0], [c, 1.0])
        outcomes.add(assert_falls_back_and_agrees(o, a, b))
    assert outcomes <= {0, sign}


def test_trim_of_a_product_coefficient_within_ulps_falls_back():
    # lhs = (1 + 1e-6 t)(x + 1e-6 t) against rhs = 0: the top 1e-12 is
    # trimmed, then whether Polynomial's trim also drops the degree-1
    # coefficient 1e-6 (1 + x), within ulps of COEFF_EPS, decides the
    # answer.
    o = point([0.0], [0.0])
    for x in ulps_around(-1.0 + COEFF_EPS / 1e-6, 3):
        a = point([1.0, 1e-6], [0.0])
        b = point([1.0], [x, 1e-6])
        assert_falls_back_and_agrees(o, a, b)


@pytest.mark.parametrize("shift", [0.0, 5.0, -3e5])
def test_exact_cancellation_at_large_magnitude_falls_back(shift):
    # (1e6 + 0.1 t)(1e6 + 0.3 t) against (1e6 + 0.3 t)(1e6 + 0.1 t): the
    # products are equal in exact arithmetic, so the polynomial path's
    # answer rests on np.convolve's rounding of the degree-1 coefficients
    # (~4e5, whose error bound exceeds COEFF_EPS).  The shifted origins
    # keep every difference exact.
    o = point([shift], [shift])
    a = point([1e6 + shift, 0.1], [1e6 + shift, 0.3])
    b = point([1e6 + shift, 0.1], [1e6 + shift, 0.3])
    assert_falls_back_and_agrees(o, a, b)


def test_overflowing_products_fall_back_and_raise_as_the_oracle():
    o = point([0.0], [0.0])
    a = point([1e200], [0.0])
    b = point([0.0], [1e200])
    with pytest.raises(ValueError, match="finite"):
        orientation_by_products(o, a, b)
    before = FALLBACKS.value
    with pytest.raises(ValueError, match="finite"):
        steady_orientation(o, a, b)
    assert FALLBACKS.value == before + 1


def test_mixed_coordinate_types_fall_back():
    o = (SteadyValue(Polynomial([0.0])), 0.0)
    a, b = point([1.0, 1.0], [0.0]), point([0.0], [1.0, 2.0])
    assert_falls_back_and_agrees(o, a, b)


def test_identical_and_collinear_points_decide_zero_on_floats():
    p = point([1.0, 2.0], [3.0, -1.0])
    q = point([2.0, 4.0], [6.0, -2.0])
    r = point([3.0, 6.0], [9.0, -3.0])
    before = FILTERED.value
    assert steady_orientation(p, p, q) == 0
    assert steady_orientation(p, q, r) == 0
    assert FILTERED.value == before + 2


def test_trimmed_product_tops_count_as_zero():
    # Both products' tops (0.8e-11 and -0.5e-11) are within COEFF_EPS, so
    # Polynomial trims them: the scan starts one degree lower, where lhs
    # (-7e-6) is below rhs (-4e-6).  Comparing the untrimmed tops instead
    # (a difference of 1.3e-11) would answer +1.
    o = point([0.0], [0.0])
    a = point([1.0, 0.8e-5], [1.0, -0.5e-5])
    b = point([1.0, 1e-6], [-1.0, 1e-6])
    before = FILTERED.value
    assert steady_orientation(o, a, b) == orientation_by_products(o, a, b) \
        == -1
    assert FILTERED.value == before + 1
