"""The steady-state reduction — Lemma 5.1.

A :class:`SteadyValue` is a real quantity that varies with time as a
bounded-degree polynomial, *ordered by its eventual value as t -> inf*.
Lemma 5.1: such comparisons take Theta(1) serial time — the sign of the
difference polynomial's leading coefficient.

Because :class:`SteadyValue` supports ``+ - *`` and total-order comparisons,
the static computational geometry of :mod:`repro.geometry` (hulls, closest
pairs, calipers, enclosing rectangles) runs on steady-state coordinates
*unchanged* — which is precisely how Section 5 turns static algorithms into
steady-state algorithms.

The host runs two of those comparisons on plain float coefficient lists
instead of :class:`~repro.kinetics.polynomial.Polynomial` objects:

* **orientation** (:func:`steady_orientation`, the type's
  ``orientation_kernel`` hook of :func:`repro.geometry.primitives.orientation`)
  forms the four coordinate differences exactly as ``Polynomial.__sub__``
  does, then the two products' coefficients top-down in plain floats, each
  with a bound on its distance to ``np.convolve``'s (which
  ``Polynomial.__mul__`` runs, in an order and with fused multiply-adds
  Python cannot reproduce).  A decision is committed only when its whole
  error interval lies on one side of its ``COEFF_EPS`` threshold; anything
  closer, and any non-finite or huge value, runs the polynomial path for
  that call.  The answer is therefore the polynomial path's on every
  input.  Counted in the registry as ``steady.filtered`` (decided on
  floats) and ``steady.fallbacks`` (polynomial path).
* **sort keys**: :meth:`SteadyValue.key_coefficients` and
  :attr:`SteadyValue.key_tolerance` let :mod:`repro.ops.vexec` lower an
  array of steady values to numeric coefficient columns (highest degree
  first) when exact lexicographic order provably equals the tolerant
  top-down scan of :meth:`Polynomial.steady_compare`.
"""

from __future__ import annotations

from ...geometry.primitives import orientation_by_products
from ...kinetics.motion import PointSystem
from ...kinetics.polynomial import COEFF_EPS, Polynomial, _sub_lists, _trim
from ...trace.registry import get_counter

__all__ = ["SteadyValue", "steady_compare", "steady_orientation",
           "steady_points"]

#: Orientation tests decided on floats / handed to the polynomial path.
_STAT_FILTERED = get_counter("steady.filtered")
_STAT_FALLBACKS = get_counter("steady.fallbacks")

#: Unit roundoff of IEEE double precision.
_U = 2.0 ** -53

#: Largest difference coefficient the float kernel accepts: products of
#: two such coefficients, and sums of up to 2^23 of them, stay finite,
#: so no coefficient ``np.convolve`` computes can overflow.
_BIG = 2.0 ** 500

#: Absolute error term: covers underflow in either computation.
_TINY = 2.0 ** -1000

#: Strict threshold: an exact value above it rounds to a float above
#: ``COEFF_EPS`` (the margin exceeds half an ulp of ``COEFF_EPS``).
_EPS_HI = COEFF_EPS * (1.0 + 2.0 ** -50)


def steady_compare(p: Polynomial, q: Polynomial) -> int:
    """-1 / 0 / +1 ordering of two polynomials as ``t -> inf`` (Lemma 5.1)."""
    return p.steady_compare(q)


def _difference(a: list, b: list) -> list | None:
    """``a - b`` as ``Polynomial.__sub__`` stores it; None past ``_BIG``.

    The same operations and trim, so the same list: no error term.  A
    non-finite difference also gives None (the polynomial path raises).
    """
    d = _trim(_sub_lists(a, b))
    for x in d:
        if not -_BIG <= x <= _BIG:
            return None
    return d


def _coefficient(u: list, v: list, i: int) -> tuple[float, float]:
    """The degree-``i`` coefficient of ``u * v`` in plain floats, and a
    bound on its distance to ``np.convolve``'s coefficient.

    Any evaluation of an ``m``-term dot product, in any summation order
    and with or without fused multiply-adds, lies within
    ``gamma_m * sum|terms|`` of the exact value (``gamma_k = k u / (1 -
    k u)``), so two evaluations lie within twice that of each other.  The
    bound uses ``gamma_(2m+4)``: the margin covers the rounding of the sum
    of magnitudes and of the threshold tests made with the bound.
    """
    lv = len(v)
    lo = i - lv + 1 if i >= lv else 0
    hi = i if i < len(u) else len(u) - 1
    if lo == hi:
        # One term: every evaluation gives the correctly rounded product.
        return u[lo] * v[i - lo], 0.0
    x = mag = 0.0
    for j in range(lo, hi + 1):
        t = u[j] * v[i - j]
        x += t
        mag += abs(t)
    k = 2 * (hi - lo + 1) + 4
    return x, mag * (2.0 * k * _U / (1.0 - k * _U)) + _TINY


def _filtered_compare(u: list, v: list, p: list, q: list) -> int | None:
    """``steady_compare(u * v, p * q)`` of the polynomial path, or None.

    Walks the coefficients top-down as :meth:`Polynomial.steady_compare`
    does.  While a product's top is still being trimmed (``_init`` drops
    leading coefficients within ``COEFF_EPS``) each of its coefficients
    must be provably trimmed (then it is exactly zero) or provably kept;
    each step of the scan must be provably above ``COEFF_EPS``, below
    ``-COEFF_EPS`` or within both.  Any interval straddling a threshold
    returns None.
    """
    nl = len(u) + len(v) - 1
    nr = len(p) + len(q) - 1
    l_open = r_open = True
    for i in range(max(nl, nr) - 1, -1, -1):
        x = e = 0.0
        if i < nl:
            x, e = _coefficient(u, v, i)
            if l_open:
                if abs(x) + e <= COEFF_EPS:
                    x = e = 0.0
                elif abs(x) - e > _EPS_HI:
                    l_open = False
                else:
                    return None
        y = f = 0.0
        if i < nr:
            y, f = _coefficient(p, q, i)
            if r_open:
                if abs(y) + f <= COEFF_EPS:
                    y = f = 0.0
                elif abs(y) - f > _EPS_HI:
                    r_open = False
                else:
                    return None
        d = x - y
        w = e + f
        if d - w > _EPS_HI:
            return 1
        if d + w < -_EPS_HI:
            return -1
        if not (-COEFF_EPS <= d - w and d + w <= COEFF_EPS):
            return None
    return 0


def steady_orientation(o, a, b) -> int:
    """Orientation of steady points: the sign of ``cross(o, a, b)`` at
    infinity, equal to :func:`orientation_by_products` on them.

    Decided on floats when the filter can prove the answer
    (``steady.filtered``); otherwise, or when a coordinate is not a
    :class:`SteadyValue`, the polynomial path answers
    (``steady.fallbacks``).
    """
    try:
        ox, oy = o[0].poly._cl, o[1].poly._cl
        ax, ay = a[0].poly._cl, a[1].poly._cl
        bx, by = b[0].poly._cl, b[1].poly._cl
    except AttributeError:
        sign = None
    else:
        u = _difference(ax, ox)
        v = _difference(by, oy)
        p = _difference(ay, oy)
        q = _difference(bx, ox)
        sign = (None if u is None or v is None or p is None or q is None
                else _filtered_compare(u, v, p, q))
    if sign is None:
        _STAT_FALLBACKS.value += 1
        return orientation_by_products(o, a, b)
    _STAT_FILTERED.value += 1
    return sign


class SteadyValue:
    """A polynomial-in-time quantity, totally ordered by behaviour at +inf."""

    __slots__ = ("poly",)

    def __init__(self, poly):
        if not isinstance(poly, Polynomial):
            poly = Polynomial.constant(float(poly))
        self.poly = poly

    # -- arithmetic (stays within polynomials: degree grows boundedly) ----
    def _lift(self, other) -> "SteadyValue":
        return other if isinstance(other, SteadyValue) else SteadyValue(other)

    def __add__(self, other):
        return SteadyValue(self.poly + self._lift(other).poly)

    __radd__ = __add__

    def __sub__(self, other):
        return SteadyValue(self.poly - self._lift(other).poly)

    def __rsub__(self, other):
        return SteadyValue(self._lift(other).poly - self.poly)

    def __mul__(self, other):
        return SteadyValue(self.poly * self._lift(other).poly)

    __rmul__ = __mul__

    def __neg__(self):
        return SteadyValue(-self.poly)

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- total order at infinity -----------------------------------------
    # Every comparison is one coefficient scan (Polynomial.steady_compare):
    # the sign of the difference is read off without building it.
    def sign(self) -> int:
        return self.poly.sign_at_infinity()

    def compare(self, other) -> int:
        """-1 / 0 / +1: the sign of ``self - other`` as ``t -> inf``."""
        return self.poly.steady_compare(self._lift(other).poly)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, (SteadyValue, int, float, Polynomial)):
            return NotImplemented
        return self.compare(other) == 0

    def __hash__(self):
        return hash(self.poly)

    def __call__(self, t: float) -> float:
        """Evaluate the underlying polynomial (for rendering results)."""
        return self.poly(t)

    # -- host kernels ----------------------------------------------------
    #: The key-lowering protocol of :mod:`repro.ops.vexec`: values order
    #: by a top-down scan of :meth:`key_coefficients` (ascending, trimmed)
    #: in which coefficient differences within ``key_tolerance`` tie.
    key_tolerance = COEFF_EPS

    def key_coefficients(self) -> list:
        """The ascending coefficient list the order scans (do not mutate)."""
        return self.poly._cl

    #: The hook :func:`repro.geometry.primitives.orientation` runs on
    #: points with steady coordinates.
    orientation_kernel = staticmethod(steady_orientation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SteadyValue({self.poly!r})"


def steady_points(system: PointSystem) -> list[tuple[SteadyValue, ...]]:
    """The system's coordinates as steady-state scalars.

    Feeding these to any comparison-based static geometry algorithm yields
    its steady-state answer (Propositions 5.2–5.4, Corollaries 5.7/5.9).
    """
    return [tuple(SteadyValue(c) for c in m.coords) for m in system.motions]
