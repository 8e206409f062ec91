"""Interval arithmetic and certified envelope verification.

``check_envelope_of`` (in :mod:`repro.kinetics.piecewise`) verifies an
envelope by *sampling* — fast, but a sampling check can in principle miss a
thin violation between samples.  This module provides the certified
alternative: outward-rounded interval evaluation of polynomials (Horner
scheme over :class:`Interval`), and a subdividing verifier that proves
``winner(t) <= other(t) + tol`` over *entire* piece intervals.

Used by the test suite to certify envelopes produced by both the serial
oracle and the machine implementation, closing the loop between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .piecewise import PiecewiseFunction
from .polynomial import Polynomial

__all__ = ["Interval", "poly_range", "certify_envelope"]

#: Multiplicative outward rounding applied after every interval operation
#: (double rounding is ~1e-16 relative; this is a comfortable cover).
_PAD = 1e-12


@dataclass(frozen=True)
class Interval:
    """A closed real interval with outward-rounded arithmetic."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    def _pad(self) -> "Interval":
        w = max(abs(self.lo), abs(self.hi), 1.0) * _PAD
        return Interval(self.lo - w, self.hi + w)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)._pad()

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)._pad()

    def __mul__(self, other: "Interval") -> "Interval":
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return Interval(min(cands), max(cands))._pad()

    def add_scalar(self, c: float) -> "Interval":
        return Interval(self.lo + c, self.hi + c)._pad()

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def poly_range(p: Polynomial, t: Interval) -> Interval:
    """An interval guaranteed to contain ``{p(x) : x in t}`` (Horner IA)."""
    cl = p._cl
    acc = Interval.point(cl[-1])
    for c in cl[-2::-1]:
        acc = (acc * t).add_scalar(c)
    return acc


def _dominates(winner: Polynomial, other: Polynomial, lo: float, hi: float,
               tol: float, max_depth: int) -> bool:
    """Certified ``winner <= other + tol`` on [lo, hi] by IA + subdivision."""
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        t = Interval(a, b)
        diff = poly_range(winner - other, t)
        if diff.hi <= tol:
            continue  # certified on this subinterval
        if diff.lo > tol:
            return False  # certified violation
        if depth >= max_depth:
            # Undecided at the finest scale: accept only if the midpoint
            # behaves (the remaining uncertainty is below tolerance scale).
            mid = 0.5 * (a + b)
            if winner(mid) > other(mid) + tol:
                return False
            continue
        mid = 0.5 * (a + b)
        stack.append((a, mid, depth + 1))
        stack.append((mid, b, depth + 1))
    return True


def certify_envelope(env: PiecewiseFunction, fns, *, op: str = "min",
                     tol: float = 1e-6, horizon: float | None = None,
                     max_depth: int = 40) -> bool:
    """Certify that ``env`` is the ``op``-envelope of polynomial ``fns``.

    For every piece and every input polynomial, proves via interval
    arithmetic that the piece's function stays within ``tol`` of the best
    over the whole piece interval (infinite pieces are checked to
    ``horizon``, defaulting to past every input's Cauchy bound, beyond
    which leading-coefficient comparison settles the order exactly).
    """
    if op not in ("min", "max"):
        raise ValueError("op must be 'min' or 'max'")
    fns = list(fns)
    if horizon is None:
        horizon = 1.0
        for f in fns:
            for g in fns:
                horizon = max(horizon, (f - g).horizon())
        horizon *= 2.0
    for piece in env.pieces:
        win = piece.fn
        if not isinstance(win, Polynomial):
            raise TypeError("certification requires polynomial pieces")
        hi = min(piece.hi, horizon) if math.isfinite(piece.hi) else horizon
        if hi <= piece.lo:
            continue
        for other in fns:
            a, b = (win, other) if op == "min" else (other, win)
            if not _dominates(a, b, piece.lo, hi, tol, max_depth):
                return False
            if not math.isfinite(piece.hi):
                # Beyond the horizon the order is the steady-state order.
                if op == "min" and win.steady_compare(other) > 0:
                    return False
                if op == "max" and win.steady_compare(other) < 0:
                    return False
    return True
