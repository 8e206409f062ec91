"""Comparison-based geometric primitives, generic over the scalar type.

Every predicate here uses only ``+ - *`` and order comparisons, so it works
for ordinary floats *and* for :class:`~repro.core.steady.reduction.SteadyValue`
coordinates — the property that lets Section 5 of the paper reduce
steady-state problems to static ones (Lemma 5.1).

Points are index-able sequences of scalars (tuples, lists, arrays).
"""

from __future__ import annotations

__all__ = ["orientation", "cross", "dot", "dist2", "sign_of", "lex_key"]


def sign_of(v) -> int:
    """-1 / 0 / +1 for any scalar supporting subtraction and comparison."""
    zero = v - v
    if v > zero:
        return 1
    if v < zero:
        return -1
    return 0


def cross(o, a, b):
    """Cross product of (a - o) with (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def dot(o, a, b):
    """Dot product of (a - o) with (b - o)."""
    return (a[0] - o[0]) * (b[0] - o[0]) + (a[1] - o[1]) * (b[1] - o[1])


def orientation(o, a, b) -> int:
    """+1 for a counter-clockwise turn o->a->b, -1 clockwise, 0 collinear.

    The sign of :func:`cross`, read by comparing its two products rather
    than by subtracting them: one step fewer, and on steady-state scalars
    no difference polynomial is built.
    """
    lhs = (a[0] - o[0]) * (b[1] - o[1])
    rhs = (a[1] - o[1]) * (b[0] - o[0])
    if lhs > rhs:
        return 1
    if lhs < rhs:
        return -1
    return 0


def dist2(a, b):
    """Squared Euclidean distance (any dimension)."""
    acc = (a[0] - b[0]) * (a[0] - b[0])
    for x, y in zip(a[1:], b[1:]):
        acc = acc + (x - y) * (x - y)
    return acc


def lex_key(p):
    """Sort key for lexicographic (x, then y, ...) point ordering."""
    return tuple(p)
