"""Dense real polynomials used as motion functions.

The paper (Section 2.4) models each coordinate of each moving point-object as
a polynomial of time with real coefficients and bounded degree ``k``
("k-motion").  This module provides the polynomial arithmetic the algorithms
rely on:

* evaluation (vectorised Horner scheme),
* ring arithmetic (needed to form squared-distance functions, cross products,
  and the difference polynomials whose roots are piece boundaries),
* real-root extraction on ``[0, inf)`` (Step 4 of Lemma 3.1 solves
  ``f(t) = g(t)`` per processor), and
* steady-state sign/comparison (Lemma 5.1: the behaviour of a bounded-degree
  polynomial as ``t -> inf`` is decided in O(1) time from its coefficients).

Coefficients are stored in *ascending* order: ``c[0] + c[1] t + ... + c[d] t^d``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Polynomial", "ZERO", "ONE", "T"]

#: Magnitude below which a floating-point coefficient is treated as zero.
COEFF_EPS = 1e-11

#: Tolerance used when deduplicating / validating real roots.
ROOT_EPS = 1e-8


def _trim(lst: list) -> list:
    """``lst`` without its trailing coefficients within COEFF_EPS of zero.

    Trims in place; a list trimmed to nothing is the zero polynomial
    ``[0.0]``.  Every :class:`Polynomial` is stored trimmed, and the
    steady-state kernel (:mod:`repro.core.steady.reduction`) trims its
    plain-float differences through here too, so both hold the same lists.
    """
    n = len(lst)
    while n > 1 and -COEFF_EPS <= lst[n - 1] <= COEFF_EPS:
        n -= 1
    if n == 1 and -COEFF_EPS <= lst[0] <= COEFF_EPS:
        return [0.0]
    if n != len(lst):
        del lst[n:]
    return lst


def _sub_lists(a: list, b: list) -> list:
    """The untrimmed coefficient list of ``a - b`` (ascending lists).

    The float operations of :meth:`Polynomial.__sub__`, shared with the
    steady-state kernel so that both compute bit-identical differences.
    """
    if len(a) < len(b):
        out = [0.0 - y for y in b]
        for i, x in enumerate(a):
            out[i] = x - b[i]
    else:
        out = list(a)
        for i, y in enumerate(b):
            out[i] = out[i] - y
    return out


def _mul_lists(a: list, b: list) -> list:
    """The untrimmed coefficient list of ``a * b`` (ascending lists).

    The one product order: coefficient ``k`` is
    ``a[lo]*b[k-lo] + a[lo+1]*b[k-lo-1] + ...``, ascending index of
    ``a``, added left to right in Python floats (which never fuse a
    multiply-add).  :meth:`Polynomial.__mul__` and the steady-state
    kernel both run it, so both compute bit-identical products.
    """
    x = a[0]
    out = [x * y for y in b]
    last = len(b) - 1
    for i in range(1, len(a)):
        x = a[i]
        for j in range(last):
            out[i + j] += x * b[j]
        out.append(x * b[last])
    return out


def _checked(lst: list) -> list:
    """``lst`` trimmed, after checking that every coefficient is finite."""
    for x in lst:
        if not math.isfinite(x):
            raise ValueError("coefficients must be finite")
    return _trim(lst)


def _compare_lists(a: list, b: list) -> int:
    """:meth:`Polynomial.steady_compare` on two trimmed coefficient lists."""
    la, lb = len(a), len(b)
    for i in range(max(la, lb) - 1, -1, -1):
        if i >= la:
            d = 0.0 - b[i]
        elif i >= lb:
            d = a[i]
        else:
            d = a[i] - b[i]
        if d > COEFF_EPS:
            return 1
        if d < -COEFF_EPS:
            return -1
    return 0


def _init(p: "Polynomial", lst: list) -> None:
    """Validate, trim and install ``lst``, a fresh non-empty float list."""
    p._cl = _checked(lst)
    p._arr = None
    p._hash = None
    p._rc = None


def _from_floats(lst: list) -> "Polynomial":
    """A polynomial over ``lst``, a fresh non-empty list of Python floats.

    The list is taken over, not copied.  The arithmetic operators build
    their results through here: they are plain float lists already, so
    the constructor's conversion pass is skipped.
    """
    p = object.__new__(Polynomial)
    _init(p, lst)
    return p


def _from_rows(M: np.ndarray) -> list["Polynomial"]:
    """``[_from_floats(row) for row in M.tolist()]`` for a float matrix,
    with the finiteness check and the trim done on the whole matrix.

    A matrix holding a non-finite value goes row by row, so the same
    ``ValueError`` is raised.
    """
    if not np.isfinite(M).all():
        return [_from_floats(row) for row in M.tolist()]
    big = (M < -COEFF_EPS) | (M > COEFF_EPS)
    # _trim's length: through the last coefficient outside COEFF_EPS; a
    # row with none is the zero polynomial [0.0].
    keep = np.where(big.any(axis=1),
                    M.shape[1] - np.argmax(big[:, ::-1], axis=1), 0)
    out = []
    for row, k in zip(M.tolist(), keep.tolist()):
        p = object.__new__(Polynomial)
        p._cl = row[:k] if k else [0.0]
        p._arr = p._hash = p._rc = None
        out.append(p)
    return out


class Polynomial:
    """An immutable dense univariate polynomial with real coefficients.

    Parameters
    ----------
    coeffs:
        Coefficients in ascending order of degree.  Trailing zeros are
        trimmed, so ``Polynomial([1.0, 0.0])`` has degree 0.

    Notes
    -----
    The coefficients live in a plain list of Python floats: the
    polynomials here are tiny (degree <= 2k), so scalar Python beats a
    chain of NumPy calls, and IEEE double arithmetic is bit-identical
    either way.  The read-only ndarray view (:attr:`coeffs`) and the hash
    are built on first use, so the many short-lived differences of the
    envelope and steady-state code never pay for them.  Instances are
    hashable on their rounded coefficient tuple and therefore usable as
    labels in piecewise functions and as dictionary keys in the grouping
    operations and crossing caches.  The root candidates of an instance
    are memoised after the first computation.
    """

    __slots__ = ("_cl", "_arr", "_hash", "_rc")

    def __init__(self, coeffs: Iterable[float]):
        if isinstance(coeffs, np.ndarray):
            if coeffs.ndim != 1:
                raise ValueError(
                    "coefficients must be a non-empty 1-D sequence"
                )
            coeffs = coeffs.tolist()  # far cheaper than per-item float()
        lst = [float(x) for x in coeffs]
        if not lst:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        _init(self, lst)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def constant(value: float) -> "Polynomial":
        """The constant polynomial ``value``."""
        return _from_floats([float(value)])

    @staticmethod
    def identity() -> "Polynomial":
        """The polynomial ``t``."""
        return Polynomial([0.0, 1.0])

    @staticmethod
    def from_roots(roots: Sequence[float], leading: float = 1.0) -> "Polynomial":
        """Monic-times-``leading`` polynomial with the given real roots."""
        p = Polynomial.constant(leading)
        for r in roots:
            p = p * Polynomial([-float(r), 1.0])
        return p

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def coeffs(self) -> np.ndarray:
        """Read-only ascending coefficient array (trailing zeros trimmed)."""
        arr = self._arr
        if arr is None:
            arr = self._arr = np.array(self._cl)
            arr.setflags(write=False)
        return arr

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree 0."""
        return len(self._cl) - 1

    @property
    def leading(self) -> float:
        """Leading (highest-degree) coefficient."""
        return self._cl[-1]

    def is_zero(self) -> bool:
        """True when the polynomial is identically zero (within tolerance)."""
        cl = self._cl
        return len(cl) == 1 and -COEFF_EPS <= cl[0] <= COEFF_EPS

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, t):
        """Evaluate via Horner's scheme.  Accepts scalars or ndarrays."""
        cl = self._cl
        if isinstance(t, (float, int)):
            acc = cl[-1]
            for i in range(len(cl) - 2, -1, -1):
                acc = acc * t + cl[i]
            return float(acc)
        t = np.asarray(t, dtype=float)
        acc = np.full(t.shape, cl[-1], dtype=float)
        for c in cl[-2::-1]:
            acc = acc * t + c
        if acc.ndim == 0:
            return float(acc)
        return acc

    def derivative(self) -> "Polynomial":
        """First derivative."""
        cl = self._cl
        if len(cl) == 1:
            return ZERO
        return _from_floats([cl[i] * i for i in range(1, len(cl))])

    # ------------------------------------------------------------------
    # Ring arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        a, b = self._cl, other._cl
        if len(a) < len(b):
            out = [0.0 + y for y in b]
            for i, x in enumerate(a):
                out[i] = x + b[i]
        else:
            out = list(a)
            for i, y in enumerate(b):
                out[i] = out[i] + y
        return _from_floats(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _from_floats([-x for x in self._cl])

    def __sub__(self, other) -> "Polynomial":
        return _from_floats(_sub_lists(self._cl, _coerce(other)._cl))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        return _from_floats(_mul_lists(self._cl, _coerce(other)._cl))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Return ``self(inner(t))`` (Horner composition)."""
        cl = self._cl
        acc = Polynomial.constant(cl[-1])
        for c in cl[-2::-1]:
            acc = acc * inner + Polynomial.constant(c)
        return acc

    # ------------------------------------------------------------------
    # Comparisons / hashing
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._cl, other._cl
        if a == b:
            return True
        if len(a) != len(b):
            return False
        # np.allclose(a, b, rtol=1e-9, atol=COEFF_EPS), spelled out on
        # scalars: |a - b| <= atol + rtol * |b| coefficient by coefficient.
        for x, y in zip(a, b):
            if not abs(x - y) <= COEFF_EPS + 1e-9 * abs(y):
                return False
        return True

    def __hash__(self) -> int:
        # Rounded so that hash is consistent with tolerance-based __eq__
        # for exactly-representable inputs (the common case in tests).
        h = self._hash
        if h is None:
            h = self._hash = hash(tuple([round(x, 9) for x in self._cl]))
        return h

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = []
        for i, c in enumerate(self._cl):
            if abs(c) <= COEFF_EPS and self.degree > 0:
                continue
            if i == 0:
                terms.append(f"{c:g}")
            elif i == 1:
                terms.append(f"{c:g}*t")
            else:
                terms.append(f"{c:g}*t^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    # ------------------------------------------------------------------
    # Steady-state behaviour (Lemma 5.1)
    # ------------------------------------------------------------------
    def sign_at_infinity(self) -> int:
        """Sign of ``self(t)`` for all sufficiently large ``t``.

        Lemma 5.1 of the paper: the steady-state minimum of two bounded-degree
        polynomials is decided in serial Theta(1) time.  The sign at +inf is
        the sign of the leading coefficient (0 for the zero polynomial).
        """
        if self.is_zero():
            return 0
        return 1 if self._cl[-1] > 0 else -1

    def steady_compare(self, other: "Polynomial") -> int:
        """Compare ``self`` and ``other`` as ``t -> inf``.

        Returns -1 if ``self(t) < other(t)`` eventually, +1 if eventually
        greater, 0 if the polynomials are identical.  Equal to
        ``(self - other).sign_at_infinity()``: the scan from the top finds
        the leading coefficient :meth:`__sub__` would keep after trimming,
        without building the difference.
        """
        return _compare_lists(self._cl, _coerce(other)._cl)

    def horizon(self) -> float:
        """A time ``H >= 1`` beyond which ``self`` has no real roots.

        Uses the Cauchy root bound: every root ``r`` satisfies
        ``|r| <= 1 + max|c_i| / |c_d|``.
        """
        if self.is_zero() or self.degree == 0:
            return 1.0
        cl = self._cl
        bound = 1.0 + max(abs(c) for c in cl[:-1]) / abs(cl[-1])
        return max(1.0, bound)

    # ------------------------------------------------------------------
    # Root finding
    # ------------------------------------------------------------------
    def real_roots(self, lo: float = 0.0, hi: float = math.inf) -> list[float]:
        """Real roots in ``[lo, hi]``, sorted ascending, deduplicated.

        Multiple roots are reported once.  This is the primitive used by
        Step 4 of Lemma 3.1 (solving ``f|I(t) = g|I(t)``), Theorem 4.2
        (collision times), and Theorem 4.5 (parallel-segment instants).

        The implementation uses the eigenvalues of the companion matrix
        (``numpy.roots``), keeps near-real eigenvalues, polishes each with a
        few Newton steps, and validates residuals.
        """
        if self.is_zero():
            # Identically zero: "roots" are the whole line; callers treat
            # an identically-zero difference separately (Lemma 3.1 step 4
            # tests for identical functions before solving).
            return []
        if self.degree == 0:
            return []
        if self.degree == 1:
            r = -self._cl[0] / self._cl[1]
            return [r] if lo - ROOT_EPS <= r <= hi + ROOT_EPS else []
        return _filter_range(self._root_candidates(), lo, hi)

    def _root_candidates(self) -> list:
        """Sorted, polished real-root candidates before range filtering.

        Only meaningful for degree >= 2 (callers handle lower degrees with
        closed forms).  Memoised on the instance: the batched solver of
        :mod:`repro.kinetics.batch` pre-populates this memo so a later
        :meth:`real_roots` call is a cheap range filter.
        """
        if self._rc is not None:
            return self._rc
        if self.degree == 2:
            roots = _quadratic_candidates(*self._cl)
        else:
            comp = np.roots(self.coeffs[::-1])
            roots = self._companion_candidates(comp)
        self._rc = roots
        return roots

    def _companion_candidates(self, comp: np.ndarray) -> list:
        """Near-real companion eigenvalues, sorted and Newton-polished."""
        scale = max(1.0, float(np.max(np.abs(comp))) if comp.size else 1.0)
        roots = sorted(
            float(z.real) for z in comp if abs(z.imag) <= 1e-7 * scale
        )
        return [self._polish(r) for r in roots]

    @staticmethod
    def batch_roots(polys: Sequence["Polynomial"], lo: float = 0.0,
                    hi: float = math.inf) -> list[list[float]]:
        """Real roots of many polynomials with one stacked eigenvalue solve.

        Equivalent to ``[p.real_roots(lo, hi) for p in polys]`` (identical
        output, including tolerance handling), but all companion matrices of
        equal size are solved by a single ``np.linalg.eigvals`` call.  See
        :mod:`repro.kinetics.batch`.
        """
        from .batch import batch_real_roots

        return batch_real_roots(polys, lo, hi)

    def _polish(self, r: float, iters: int = 3) -> float:
        """A few Newton iterations to refine an approximate real root."""
        d = self.derivative()
        x = r
        for _ in range(iters):
            fx = self(x)
            dx = d(x)
            if abs(dx) < 1e-14:
                break
            step = fx / dx
            if not math.isfinite(step):
                break
            x_new = x - step
            if not math.isfinite(x_new):
                break
            x = x_new
        # Accept the polished value only if it did not drift far away.
        if abs(x - r) <= 1e-3 * max(1.0, abs(r)):
            return x
        return r

    def sign_changes_on(self, lo: float, hi: float) -> list[float]:
        """Roots in ``(lo, hi)`` at which the polynomial changes sign."""
        out = []
        for r in self.real_roots(lo, hi):
            left = self(max(lo, r - _probe(r)))
            right = self(min(hi, r + _probe(r))) if math.isfinite(hi) else self(r + _probe(r))
            if left * right < 0:
                out.append(r)
        return out


def _probe(r: float) -> float:
    """Small probe offset proportional to the magnitude of ``r``."""
    return 1e-6 * max(1.0, abs(r))


def _quadratic_candidates(c, b, a) -> list:
    """Roots of ``a t^2 + b t + c`` via the numerically stable formula.

    Shared between the scalar path and the batched solver so both produce
    bit-identical candidate lists.
    """
    disc = b * b - 4 * a * c
    if disc < -ROOT_EPS * max(1.0, b * b + abs(4 * a * c)):
        return []
    disc = max(disc, 0.0)
    sq = math.sqrt(disc)
    if b >= 0:
        q = -(b + sq) / 2.0
    else:
        q = -(b - sq) / 2.0
    cands = set()
    if abs(a) > COEFF_EPS:
        cands.add(q / a)
    if abs(q) > COEFF_EPS:
        cands.add(c / q)
    if not cands:  # b == 0 and c == 0: double root at 0
        cands.add(0.0)
    return sorted(cands)


def _filter_range(roots, lo: float, hi: float) -> list:
    """Keep candidates in ``[lo, hi]`` (with tolerance), clamp, deduplicate."""
    out: list[float] = []
    for r in roots:
        if r < lo - ROOT_EPS or r > hi + ROOT_EPS:
            continue
        r = min(max(r, lo), hi if math.isfinite(hi) else r)
        if out and abs(r - out[-1]) <= ROOT_EPS * max(1.0, abs(r)):
            continue
        out.append(r)
    return out


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, float, np.floating, np.integer)):
        return Polynomial.constant(float(value))
    raise TypeError(f"cannot coerce {type(value).__name__} to Polynomial")


#: The zero polynomial.
ZERO = Polynomial([0.0])
#: The unit polynomial.
ONE = Polynomial([1.0])
#: The identity polynomial ``t``.
T = Polynomial([0.0, 1.0])
