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

import numpy as np
from typing import Iterable, Sequence

from ..kinetics.batch import warm_root_candidates
from ..kinetics.polynomial import Polynomial
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

    def combine(self, f, g, kind: str):
        """The curve ``f (op) g`` for arithmetic ``kind`` in {sum, diff, ...}.

        Optional; needed only by :func:`repro.core.envelope.combine_map`.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot combine curves")

    def constant(self, c: float):
        """The constant curve at level ``c`` (for threshold indicators)."""
        raise NotImplementedError(f"{type(self).__name__} has no constants")

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
