"""Comparison-based geometric primitives, generic over the scalar type.

Every predicate here uses only ``+ - *`` and order comparisons, so it works
for ordinary floats *and* for :class:`~repro.core.steady.reduction.SteadyValue`
coordinates — the property that lets Section 5 of the paper reduce
steady-state problems to static ones (Lemma 5.1).

A coordinate type may also supply its own orientation test, as a static
``orientation_kernel(o, a, b)`` on the type: :func:`orientation` runs it
for points whose first coordinate has that type.  ``SteadyValue`` does,
with a kernel that runs the polynomial path's float operations on the
coefficient lists without building the polynomials, so it answers as
:func:`orientation_by_products` does on them.  This module stays
generic: it never imports the steady-state code.

Points are index-able sequences of scalars (tuples, lists, arrays).
"""

from __future__ import annotations

__all__ = ["orientation", "orientation_of", "orientation_by_products",
           "cross", "dot", "dist2", "sign_of", "lex_key"]


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

    Runs the coordinate type's ``orientation_kernel`` when it has one
    (see :func:`orientation_of`), else :func:`orientation_by_products`.
    """
    return orientation_of(o)(o, a, b)


def orientation_of(point):
    """The orientation test for points with ``point``'s coordinate type.

    Loops over many triples of one point set look the test up once.
    """
    return getattr(type(point[0]), "orientation_kernel",
                   orientation_by_products)


def orientation_by_products(o, a, b) -> int:
    """The sign of :func:`cross`, read by comparing its two products
    rather than by subtracting them: one step fewer, and on steady-state
    scalars no difference of the products is built.
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
