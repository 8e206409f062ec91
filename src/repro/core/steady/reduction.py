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
  runs the list operations behind ``Polynomial.__sub__``, ``__mul__`` and
  ``steady_compare`` (one product order, ``_mul_lists``) without
  building the polynomials, so it answers exactly as
  :func:`repro.geometry.primitives.orientation_by_products` on every
  input.
* **sort keys**: :meth:`SteadyValue.key_coefficients` and
  :attr:`SteadyValue.key_tolerance` let :mod:`repro.ops.vexec` lower an
  array of steady values to numeric coefficient columns (highest degree
  first) when exact lexicographic order provably equals the tolerant
  top-down scan of :meth:`Polynomial.steady_compare`.
"""

from __future__ import annotations

from ...geometry.primitives import orientation_by_products
from ...kinetics.motion import PointSystem
from ...kinetics.polynomial import (
    COEFF_EPS,
    Polynomial,
    _checked,
    _compare_lists,
    _mul_lists,
    _sub_lists,
    _trim,
)

__all__ = ["SteadyValue", "steady_compare", "steady_orientation",
           "steady_points"]


def steady_compare(p: Polynomial, q: Polynomial) -> int:
    """-1 / 0 / +1 ordering of two polynomials as ``t -> inf`` (Lemma 5.1)."""
    return p.steady_compare(q)


def steady_orientation(o, a, b) -> int:
    """Orientation of steady points: the sign of ``cross(o, a, b)`` at
    infinity, equal to :func:`orientation_by_products` on them.

    The same float operations on the coefficient lists, so the same
    answer, and the same ``ValueError`` when a product is not finite (a
    non-finite difference makes one of its products non-finite).  When a
    coordinate is not a :class:`SteadyValue`, the polynomial path answers.
    """
    try:
        ox, oy = o[0].poly._cl, o[1].poly._cl
        ax, ay = a[0].poly._cl, a[1].poly._cl
        bx, by = b[0].poly._cl, b[1].poly._cl
    except AttributeError:
        return orientation_by_products(o, a, b)
    lhs = _mul_lists(_trim(_sub_lists(ax, ox)), _trim(_sub_lists(by, oy)))
    rhs = _mul_lists(_trim(_sub_lists(ay, oy)), _trim(_sub_lists(bx, ox)))
    return _compare_lists(_checked(lhs), _checked(rhs))


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
