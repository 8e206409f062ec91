"""Curve families: the O(1)-primitives the envelope algorithms require.

Section 6 of the paper lists the properties a family of functions must have
for the algorithms to apply: O(1) storage, O(1) evaluation, and at most
``s`` pairwise intersections computable in O(1) serial time.  A
:class:`CurveFamily` packages exactly those primitives, so the envelope
engine of :mod:`repro.core.envelope` works for polynomial trajectories
(Sections 3–5) *and* for the angle functions of the convex-hull membership
algorithm (Section 4.2) without modification.

Crossing cache
--------------
Crossing computation is the envelope hot path: the recursive halving levels
of Theorem 3.2 and the four envelopes of Theorem 4.5 repeatedly intersect
the *same* pair of curves over different intervals.  The base class
therefore memoises per-pair crossing data (hash-keyed on the curve pair —
curves are hash-stable) and answers each interval query with a cheap range
filter over the cached full-line data.  ``cache_hits`` / ``cache_misses``
count pair lookups; :meth:`prefetch_crossings` lets callers warm many pairs
at once so the expensive eigensolves run batched
(:mod:`repro.kinetics.batch`).  Caching and batching change host-side
wall-clock only — every returned crossing list is bit-identical to the
uncached per-pair computation, which is what keeps the simulated-time
accounting invariant.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np
from typing import Iterable, Sequence

from ..kinetics.batch import warm_root_candidates
from ..kinetics.polynomial import (
    COEFF_EPS,
    ROOT_EPS,
    Polynomial,
    _from_rows,
)
from ..trace.registry import get_counter

__all__ = ["CurveFamily", "PolynomialFamily", "global_cache_stats",
           "reset_global_cache_stats"]

#: Process-wide crossing-cache counters, summed over every family instance
#: (families are created per envelope/membership call, so per-instance
#: counters alone cannot describe a whole benchmark run).  The cells live
#: in the shared :data:`repro.trace.registry.REGISTRY`, so the crossing
#: cache appears in the same ``--verbose`` table and trace exports as the
#: movement-plan and charge-memo counters.
_HITS = get_counter("crossing_cache.hits")
_MISSES = get_counter("crossing_cache.misses")


def global_cache_stats() -> dict:
    """Process-wide crossing-cache hit/miss counters and hit rate."""
    hits, misses = _HITS.value, _MISSES.value
    total = hits + misses
    return {"hits": hits, "misses": misses,
            "hit_rate": hits / total if total else 0.0}


def reset_global_cache_stats() -> None:
    _HITS.reset()
    _MISSES.reset()


class CurveFamily:
    """Abstract family of real-valued curves with bounded pairwise crossings.

    Attributes
    ----------
    s:
        An upper bound on the number of times two distinct members may
        intersect — the ``s`` of ``lambda(n, s)``.
    cache_enabled:
        When True (default), per-pair crossing data is memoised; disable to
        force the original pair-at-a-time computation (results identical).
    cache_hits / cache_misses:
        Counters of pair-cache lookups, for benchmark reporting.
    """

    s: int = 0

    # Lazily materialised per instance, so subclasses need no __init__
    # chaining to participate in the cache protocol.
    cache_enabled: bool = True
    cache_hits: int = 0
    cache_misses: int = 0
    _pair_cache: dict | None = None

    def value(self, f, t: float) -> float:
        """Evaluate curve ``f`` at time ``t``."""
        raise NotImplementedError

    def crossings(self, f, g, lo: float, hi: float) -> list[float]:
        """Times strictly inside ``(lo, hi)`` where ``f`` and ``g`` agree.

        Must return at most ``s`` times, sorted ascending; identical curves
        return no crossings (callers test :meth:`same` first).
        """
        raise NotImplementedError

    def same(self, f, g) -> bool:
        """True when ``f`` and ``g`` are the identical curve."""
        return f is g or f == g

    def same_columns(self, fns: Sequence):
        """``same(a, b)``: :meth:`same` of ``fns[a[i]]`` and ``fns[b[i]]``
        for every ``i`` of two index arrays, as a bool array.

        ``fns`` may grow between calls.  This version asks :meth:`same`
        once per index pair and remembers the verdict; families with
        array-friendly curves override it.
        """
        memo: dict = {}

        def same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            out = []
            for key in zip(a.tolist(), b.tolist()):
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = bool(
                        self.same(fns[key[0]], fns[key[1]]))
                out.append(hit)
            return np.array(out, dtype=bool)
        return same

    def combine(self, f, g, kind: str):
        """The curve ``f (op) g`` for arithmetic ``kind`` in {sum, diff, ...}.

        Optional; needed only by the arithmetic ops ("sum", "diff",
        "product") of :func:`repro.core.envelope.combine_pairwise` and
        :func:`~repro.core.envelope.combine_pairwise_serial` (Lemma 2.5).
        """
        raise NotImplementedError(f"{type(self).__name__} cannot combine curves")

    def constant(self, c: float):
        """The constant curve at level ``c`` (for threshold indicators)."""
        raise NotImplementedError(f"{type(self).__name__} has no constants")

    # ------------------------------------------------------------------
    # Step 4 of Lemma 3.1 (select ops)
    # ------------------------------------------------------------------
    def split_gap(self, f, g, lo: float, hi: float,
                  op: str) -> list[tuple[float, float, bool]]:
        """``op(f, g)`` on a gap ``[lo, hi]`` where both distinct curves are
        defined: ``(a, b, f_wins)`` subintervals, left to right.

        The gap is cut at the crossings; each nondegenerate subinterval
        goes to the curve that wins at its midpoint (ties to ``f``).
        """
        bounds = [lo, *self.crossings(f, g, lo, hi), hi]
        out = []
        for a, b in zip(bounds, bounds[1:]):
            if b - a <= 1e-9 * max(1.0, abs(a)):
                continue
            mid = a + 1.0 if math.isinf(b) else 0.5 * (a + b)
            va, vb = self.value(f, mid), self.value(g, mid)
            out.append((a, b, va <= vb if op == "min" else va >= vb))
        return out

    def resolve_gaps(self, lo: np.ndarray, hi: np.ndarray, f: np.ndarray,
                     g: np.ndarray, fns: Sequence, op: str):
        """:meth:`split_gap` for every crossing gap of one envelope tree
        level at once (:mod:`repro.core._envelope_kernel`).

        Gap ``i`` is ``[lo[i], hi[i]]`` with curves ``fns[f[i]]`` and
        ``fns[g[i]]``, which are not :meth:`same`.  Returns the subpieces
        as columns ``(gap, lo, hi, owner)``: ordered by gap, then left to
        right, ``owner`` being ``f[gap]`` or ``g[gap]``.  This base version
        prefetches the level's distinct pairs in one batch, then splits
        each gap; families with array-friendly curves override it.
        """
        lo_l, hi_l, f_l, g_l = lo.tolist(), hi.tolist(), f.tolist(), g.tolist()
        self.prefetch_crossings(
            dict.fromkeys((fns[x], fns[y]) for x, y in zip(f_l, g_l)))
        gap, out_lo, out_hi, own = [], [], [], []
        for i, (a0, b0, x, y) in enumerate(zip(lo_l, hi_l, f_l, g_l)):
            for a, b, f_wins in self.split_gap(fns[x], fns[y], a0, b0, op):
                gap.append(i)
                out_lo.append(a)
                out_hi.append(b)
                own.append(x if f_wins else y)
        return (np.array(gap, dtype=np.int64), np.array(out_lo, dtype=float),
                np.array(out_hi, dtype=float), np.array(own, dtype=np.int64))

    # ------------------------------------------------------------------
    # Crossing cache protocol
    # ------------------------------------------------------------------
    def _cache(self) -> dict:
        cache = self._pair_cache
        if cache is None:
            cache = {}
            self._pair_cache = cache
        return cache

    def _pair_entry(self, f, g):
        """The memoised per-pair crossing data, computing it on a miss.

        Subclasses define :meth:`_compute_pair` (the full-line data for one
        pair); with the cache disabled it is recomputed on every call.
        """
        if not self.cache_enabled:
            self.cache_misses += 1
            _MISSES.value += 1
            return self._compute_pair(f, g)
        key = (f, g)
        cache = self._cache()
        entry = cache.get(key)
        if entry is None:
            self.cache_misses += 1
            _MISSES.value += 1
            entry = cache[key] = self._compute_pair(f, g)
        else:
            self.cache_hits += 1
            _HITS.value += 1
        return entry

    def _compute_pair(self, f, g):
        """Full-line crossing data for one curve pair (subclass hook)."""
        raise NotImplementedError

    def prefetch_crossings(self, pairs: Iterable[tuple]) -> None:
        """Warm the pair cache for many ``(f, g)`` pairs in one batch.

        New pair data is computed via :meth:`_compute_pair` and then handed
        to :meth:`_warm_prefetched`, where families whose data reduces to
        polynomial root isolation stack the eigensolves
        (:func:`repro.kinetics.batch.warm_root_candidates`).  A no-op when
        the cache is disabled.
        """
        if not self.cache_enabled:
            return
        cache = self._cache()
        fresh = []
        for f, g in pairs:
            key = (f, g)
            if key not in cache:
                self.cache_misses += 1
                _MISSES.value += 1
                entry = cache[key] = self._compute_pair(f, g)
                fresh.append(entry)
        if fresh:
            self._warm_prefetched(fresh)

    def _warm_prefetched(self, entries: list) -> None:
        """Batch-stage hook: given freshly cached pair entries, run any
        batched precomputation (default: nothing)."""

    def _gap_entries(self, pairs: list, n_gaps: int, build):
        """The pair cache's entries for ``pairs`` (distinct curve pairs of
        one :meth:`resolve_gaps` call, in first-gap order) and the ones
        made here, with the counters of :meth:`prefetch_crossings`
        followed by ``n_gaps`` :meth:`crossings` calls: one miss per new
        pair and one hit per gap.  ``build(idx)`` makes the entries of
        ``pairs[i]`` for ``i`` in ``idx``.  With the cache disabled every
        entry is made and nothing is stored (one miss per gap).
        """
        if not self.cache_enabled:
            entries = build(range(len(pairs)))
            self.cache_misses += n_gaps
            _MISSES.value += n_gaps
            return entries, entries
        cache = self._cache()
        entries = list(map(cache.get, pairs))
        miss = [i for i, e in enumerate(entries) if e is None]
        fresh = []
        for i, e in zip(miss, build(miss)):
            # A pair equal to one installed earlier in this call reads
            # that pair's entry, as a lookup after its install would.
            entries[i] = cache.setdefault(pairs[i], e)
            if entries[i] is e:
                fresh.append(e)
        self.cache_misses += len(fresh)
        _MISSES.value += len(fresh)
        self.cache_hits += n_gaps
        _HITS.value += n_gaps
        return entries, fresh

    def cache_stats(self) -> dict:
        """Hit/miss counters and current cache size, for reporting."""
        total = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": self.cache_hits / total if total else 0.0,
            "size": len(self._pair_cache) if self._pair_cache else 0,
        }

    def cache_clear(self) -> None:
        """Drop all memoised pair data and reset the counters."""
        self._pair_cache = None
        self.cache_hits = 0
        self.cache_misses = 0


class PolynomialFamily(CurveFamily):
    """Curves are :class:`~repro.kinetics.polynomial.Polynomial` of degree <= s.

    Two distinct degree-``s`` polynomials intersect at most ``s`` times, and
    the intersections are the real roots of their difference — computable in
    O(1) time for bounded ``s`` (Step 4 of Lemma 3.1).
    """

    def __init__(self, s: int):
        if s < 0:
            raise ValueError("degree bound s must be non-negative")
        self.s = s

    def value(self, f: Polynomial, t: float) -> float:
        return f(t)

    def _compute_pair(self, f: Polynomial, g: Polynomial) -> Polynomial:
        return f - g

    def _warm_prefetched(self, entries: list) -> None:
        warm_root_candidates(entries)

    def crossings(self, f: Polynomial, g: Polynomial, lo: float, hi: float) -> list[float]:
        diff = self._pair_entry(f, g)
        if diff.is_zero():
            return []
        eps = 1e-9 * max(1.0, abs(lo))
        roots = diff.real_roots(lo, hi)
        return [r for r in roots
                if lo + eps < r and (not math.isfinite(hi) or r < hi - eps)]

    def resolve_gaps(self, lo: np.ndarray, hi: np.ndarray, f: np.ndarray,
                     g: np.ndarray, fns: Sequence[Polynomial], op: str):
        """:meth:`CurveFamily.resolve_gaps` over coefficient columns.

        The subpieces equal per-gap :meth:`split_gap` calls after one
        :meth:`prefetch_crossings`, because every float comes from the
        scalar path's own code or from its operations in its order:

        * crossing data goes through the pair cache, filled in bulk: the
          level's distinct pairs are looked up in first-gap order and the
          misses installed from one subtraction of zero-padded
          coefficient rows (``0.0 - y`` and ``x - 0.0`` are what
          ``Polynomial.__sub__`` computes past the shorter operand);
          counters move as one miss per new pair and one hit per gap;
        * each pair's root candidates come from :func:`_candidates`
          (degree <= 2 in closed form, elementwise; higher degrees the
          memoised, batch-solved ones), and :func:`_crossings` applies
          ``real_roots``' range filter and ``crossings``' open-interval
          test to all gaps at once;
        * midpoint winners come from one batched Horner scheme.
        """
        n = len(lo)
        if not n:
            return f, lo, hi, g  # no gaps: the empty columns serve
        pid, pf, pg = _distinct_pairs(f, g)
        # The rows of the curves involved (ascending coefficients,
        # zero-padded).
        own, rf, rg = _rows(pf, pg)
        C = _padded([fns[o]._cl for o in own], 0.0)[0]
        D = C[rf] - C[rg]
        entries, fresh = self._gap_entries(
            [(fns[x], fns[y]) for x, y in zip(pf.tolist(), pg.tolist())],
            n, lambda idx: _from_rows(D[idx]))
        high = [e for e in fresh if e.degree >= 3]
        if high:
            warm_root_candidates(high)
        cands, count = _candidates(entries)
        roots, kept = _crossings(cands[pid], count[pid], lo, hi)
        s_gap, a, b, mid = _subintervals(lo, hi, roots, kept)
        sp = pid[s_gap]
        va, vb = _horner(C, np.concatenate((rf[sp], rg[sp])),
                         np.concatenate((mid, mid))).reshape(2, -1)
        f_wins = va <= vb if op == "min" else va >= vb
        return s_gap, a, b, np.where(f_wins, f[s_gap], g[s_gap])

    def same_columns(self, fns: Sequence[Polynomial]):
        """:meth:`CurveFamily.same_columns` on zero-padded coefficient
        rows of ``fns``: equal trimmed lengths and ``|a - b| <= COEFF_EPS
        + 1e-9 * |b|`` on every coefficient, which is exactly ``f is g or
        f == g`` (``Polynomial.__eq__``).  The rows are built once, and
        again only when ``fns`` has grown."""
        table: list = []

        def same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            if not table or len(table[1]) != len(fns):
                table[:] = _padded([p._cl for p in fns], 0.0)
            M, lens = table
            A, B = M[a], M[b]
            return (lens[a] == lens[b]) & (
                np.abs(A - B) <= COEFF_EPS + 1e-9 * np.abs(B)).all(axis=1)
        return same

    def combine(self, f: Polynomial, g: Polynomial, kind: str) -> Polynomial:
        if kind == "sum":
            return f + g
        if kind == "diff":
            return f - g
        if kind == "product":
            return f * g
        raise ValueError(f"unknown combination kind {kind!r}")

    def constant(self, c: float) -> Polynomial:
        return Polynomial.constant(c)

    @staticmethod
    def for_curves(curves: Sequence[Polynomial]) -> "PolynomialFamily":
        """A family sized to the maximum degree present."""
        return PolynomialFamily(max((c.degree for c in curves), default=0))


def _padded(rows: list, fill: float, width: int = 1):
    """Ragged float lists as one ``fill``-padded matrix (at least
    ``width`` columns), with each row's length."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    M = np.full((len(rows), max(width, int(lens.max()))), fill)
    ends = np.cumsum(lens)
    M[np.repeat(np.arange(len(rows)), lens),
      np.arange(int(ends[-1])) - np.repeat(ends - lens, lens)] = np.fromiter(
        chain.from_iterable(rows), dtype=float, count=int(ends[-1]))
    return M, lens


def _candidates(diffs: list):
    """Each difference's sorted root candidates (what ``real_roots``
    range-filters), as a NaN-padded matrix and per-row counts.

    Degree 1 is ``-c0 / c1`` (``real_roots`` does not clamp it, but a
    single candidate's clamp cannot change what ``crossings`` keeps);
    degree 2 is ``_quadratic_candidates`` elementwise, the sorted set
    included; higher degrees read the memoised, batch-solved candidates.
    """
    E, lens = _padded([d._cl for d in diffs], 0.0, width=3)
    deg = lens - 1
    high = np.nonzero(deg >= 3)[0].tolist()
    extra = [diffs[i]._root_candidates() for i in high]
    cands = np.full((len(diffs), max([2, *map(len, extra)])), np.nan)
    count = np.zeros(len(diffs), dtype=np.int64)
    lin = deg == 1
    cands[lin, 0] = -E[lin, 0] / E[lin, 1]
    count[lin] = 1
    quad = np.nonzero(deg == 2)[0]
    c, b, a = E[quad, 0], E[quad, 1], E[quad, 2]
    bb = b * b
    fac = 4.0 * a * c
    disc = bb - fac
    real = ~(disc < -ROOT_EPS * np.maximum(bb + np.abs(fac), 1.0))
    sq = np.sqrt(np.where(0.0 > disc, 0.0, disc))
    q = np.where(b >= 0, -(b + sq) / 2.0, -(b - sq) / 2.0)
    has1 = np.abs(a) > COEFF_EPS
    has2 = np.abs(q) > COEFF_EPS
    r1 = q / np.where(has1, a, 1.0)
    r2 = c / np.where(has2, q, 1.0)
    two = has1 & has2 & (r1 != r2)
    cands[quad, 0] = np.where(two, np.minimum(r1, r2),
                              np.where(has1, r1, np.where(has2, r2, 0.0)))
    cands[quad, 1] = np.where(two, np.maximum(r1, r2), np.nan)
    count[quad] = np.where(real, 1 + two, 0)
    for i, rc in zip(high, extra):
        cands[i, :len(rc)] = rc
        count[i] = len(rc)
    return cands, count


def _crossings(cands: np.ndarray, count: np.ndarray, lo: np.ndarray,
               hi: np.ndarray):
    """``crossings`` of every gap from its sorted candidates (row ``i``,
    the first ``count[i]`` columns): ``_filter_range``'s range test,
    clamp and dedupe, then the open-interval test.  Returns the clamped
    roots and the mask of kept ones, left to right."""
    lo, hi = lo[:, None], hi[:, None]
    finite = np.isfinite(hi)
    ok = (np.arange(cands.shape[1]) < count[:, None]) & ~(
        (cands < lo - ROOT_EPS) | (cands > hi + ROOT_EPS))
    y = np.where(lo > cands, lo, cands)  # min(max(r, lo), hi if finite else r)
    y = np.where(finite, np.where(hi < y, hi, y), cands)
    if cands.shape[1] > 1:
        # A candidate within ROOT_EPS of the last one kept is dropped.
        tol = ROOT_EPS * np.maximum(np.abs(y), 1.0)
        last, seen = y[:, 0], ok[:, 0].copy()
        for j in range(1, cands.shape[1]):
            ok[:, j] &= ~(seen & (np.abs(y[:, j] - last) <= tol[:, j]))
            last = np.where(ok[:, j], y[:, j], last)
            seen |= ok[:, j]
    eps = 1e-9 * np.maximum(np.abs(lo), 1.0)
    return y, ok & (lo + eps < y) & (~finite | (y < hi - eps))


def _distinct_pairs(f: np.ndarray, g: np.ndarray):
    """The distinct ``(f[i], g[i])`` index pairs of gap columns, numbered
    in first-gap order: ``(pair of each gap, f of each pair, g of each
    pair)``."""
    _, first, inv = np.unique(f * (int(g.max()) + 1) + g,
                              return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    keep = first[order]
    return rank[inv], f[keep], g[keep]


def _rows(pf: np.ndarray, pg: np.ndarray):
    """The distinct indices of ``pf`` and ``pg`` (as a list), and the
    position of each entry of ``pf`` and of ``pg`` among them."""
    own, inv = np.unique(np.concatenate((pf, pg)), return_inverse=True)
    return own.tolist(), inv[:len(pf)], inv[len(pf):]


def _subintervals(lo: np.ndarray, hi: np.ndarray, roots: np.ndarray,
                  kept: np.ndarray):
    """:meth:`CurveFamily.split_gap`'s cuts for every gap at once: the
    nondegenerate subintervals ``[a, b]`` between consecutive bounds
    ``[lo, kept roots..., hi]``, as ``(gap, a, b, mid)`` columns ordered by
    gap, then left to right, ``mid`` being where the winner is decided."""
    n = len(lo)
    bounds = np.column_stack((lo, roots, hi))
    b_gap, b_col = np.column_stack((np.ones(n, dtype=bool), kept,
                                    np.ones(n, dtype=bool))).nonzero()
    b_val = bounds[b_gap, b_col]
    inner = np.nonzero(b_gap[1:] == b_gap[:-1])[0]
    a, b = b_val[inner], b_val[inner + 1]
    keep = ~(b - a <= 1e-9 * np.maximum(np.abs(a), 1.0))
    a, b = a[keep], b[keep]
    return (b_gap[inner[keep]], a, b,
            np.where(np.isinf(b), a + 1.0, 0.5 * (a + b)))


def _horner(C: np.ndarray, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``Polynomial.__call__`` of curve ``rows[i]`` at ``t[i]``, batched.

    ``C`` holds ascending coefficients, zero-padded: the leading zeros
    leave ``acc`` at ``0.0`` until the top real coefficient, so each value
    equals the scalar Horner scheme's for finite ``t``.
    """
    acc = C[rows, -1]
    for j in range(C.shape[1] - 2, -1, -1):
        acc = acc * t + C[rows, j]
    return acc
