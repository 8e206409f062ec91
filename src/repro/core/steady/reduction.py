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
"""

from __future__ import annotations

from ...kinetics.motion import PointSystem
from ...kinetics.polynomial import Polynomial

__all__ = ["SteadyValue", "steady_compare", "steady_points"]


def steady_compare(p: Polynomial, q: Polynomial) -> int:
    """-1 / 0 / +1 ordering of two polynomials as ``t -> inf`` (Lemma 5.1)."""
    return p.steady_compare(q)


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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SteadyValue({self.poly!r})"


def steady_points(system: PointSystem) -> list[tuple[SteadyValue, ...]]:
    """The system's coordinates as steady-state scalars.

    Feeding these to any comparison-based static geometry algorithm yields
    its steady-state answer (Propositions 5.2–5.4, Corollaries 5.7/5.9).
    """
    return [tuple(SteadyValue(c) for c in m.coords) for m in system.motions]
