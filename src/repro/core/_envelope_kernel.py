"""Level-synchronous Theorem 3.2 geometry: one columnar pass per tree level.

Theorem 3.2 runs every sibling combine of a level at the same time, on
disjoint substrings of the machine.  This kernel computes them the same
way on the host: each level of the combine tree is one batched pass over
columns, so an ``n``-curve envelope costs ``ceil(log2 n)`` passes instead
of ``n - 1`` per-combine walks (:func:`repro.core.envelope._combine_geometry`).
A pass has a fixed cost of a few dozen array operations, so it runs only
levels of at least :data:`MIN_RECORDS` records; the caller walks the
small levels left, combine by combine, as it walks single combines.

Columns
-------
A level holds every piece of every function as ``lo`` / ``hi`` (float64)
and ``owner``, an index into a per-call table of the distinct
``(fn, label)`` pairs of the input pieces, plus the function bounds as
per-function piece counts ``cnt`` (functions are stored one after the
other, in order).  :class:`~repro.kinetics.piecewise.Piece` objects are
built once, for the functions handed back.

The steps of Lemma 3.1 map onto the columns as follows.

* **Step 2 (merge).**  Records are laid out in the walk's insertion order
  (per piece Left then Right, ``F``'s pieces before ``G``'s) and ordered
  by one stable ``np.lexsort`` on (pair, endpoint, tie): each pair's run
  is exactly the walk's ``(endpoint, tie)``-sorted record list.
* **Step 3 (active pieces).**  The last ``F`` and ``G`` record at or
  before each record comes from a segmented ``np.maximum.accumulate``; a
  gap ends at the next record's endpoint, or at +inf after a pair's last
  record.
* **Step 4 (gaps).**  One-sided gaps are clipped to their piece;
  two-sided gaps of ``family.same`` curves yield one subpiece; the rest go
  to :meth:`CurveFamily.resolve_gaps` in one call per level.  Arithmetic
  maps add one owner (``family.combine``) per two-sided gap.
* **Step 6 (fuse).**  Touching neighbours within a pair fuse when their
  owners are equal, or when their labels are equal and ``family.same``
  holds (the rule of :func:`repro.core.envelope._fuse_host`).

Every float is produced by the same IEEE operations, in the same order, as
the walk, so the pieces are identical to it, and each combine's charge
``shape`` is derived from the same counts.  A pair with an empty operand
passes the other operand through with shape ``None``; an odd last
function is carried to the next level.
"""

from __future__ import annotations

import numpy as np

from ..kinetics.piecewise import Piece, PiecewiseFunction
from .family import CurveFamily

__all__ = ["envelope_levels"]

#: Tolerance below which an interval is considered degenerate
#: (``core.envelope._EPS``).
_EPS = 1e-9

_INF = np.inf


def _eps(t: np.ndarray) -> np.ndarray:
    """``core.envelope._eps`` elementwise, for finite ``t``."""
    return _EPS * np.maximum(np.abs(t), 1.0)


def _pow2(x: np.ndarray) -> np.ndarray:
    """``ops._common.next_pow2`` elementwise (exact for counts < 2**53)."""
    v = np.maximum(x, 1) - 1
    return np.left_shift(1, np.frexp(v.astype(float))[1]).astype(np.int64)


#: Fewest Left/Right records (two per piece) a tree level needs to be run
#: here: below it, one Python walk per combine
#: (``core.envelope._combine_geometry``) beats the columnar pass's fixed
#: cost of a few dozen array operations per level.  Fixed from the
#: measured crossover (EXPERIMENTS.md, "Level-synchronous envelope
#: geometry").
MIN_RECORDS = 96


def envelope_levels(level: list[PiecewiseFunction], family: CurveFamily,
                    op: str):
    """The Theorem 3.2 combine tree of ``level``, run level by level while
    a level holds at least :data:`MIN_RECORDS` records.

    Returns ``(functions, tree)``: the functions of the first level not
    run (a single one when the tree is done) and, per level run, its
    combines as ``(sub-machine length, shape)`` pairs, exactly as the
    per-combine walk builds them (``shape`` is ``None`` for a pair with
    an empty operand).
    """
    pieces = [p for F in level for p in F.pieces]
    if 2 * len(pieces) < MIN_RECORDS:
        return level, []
    # Owners: the input pieces' distinct (fn, label) pairs, by identity.
    keys = [(id(p.fn), id(p.label)) for p in pieces]
    firsts = dict(zip(keys, pieces))
    index = {key: o for o, key in enumerate(firsts)}
    tree = _Tree(family, op, [p.fn for p in firsts.values()],
                 [p.label for p in firsts.values()])
    cols = (np.array([p.lo for p in pieces], dtype=float),
            np.array([p.hi for p in pieces], dtype=float),
            np.array(list(map(index.__getitem__, keys)), dtype=np.int64),
            np.array([len(F.pieces) for F in level], dtype=np.int64))
    combines = []
    while len(cols[3]) > 1 and 2 * len(cols[0]) >= MIN_RECORDS:
        cols = tree.level(*cols, combines)
    lo, hi, owner, cnt = cols
    fns, labels = tree.fns, tree.labels
    out = [Piece(a, b, fns[o], labels[o])
           for a, b, o in zip(lo.tolist(), hi.tolist(), owner.tolist())]
    ends = np.cumsum(cnt).tolist()
    return [PiecewiseFunction(out[e - k:e], validate=False)
            for k, e in zip(cnt.tolist(), ends)], combines


class _Tree:
    """The per-call state: the owner table and the ``same`` memo."""

    def __init__(self, family: CurveFamily, op: str, fns: list,
                 labels: list):
        self.family = family
        self.op = op
        self.select = op in ("min", "max")
        self.fns = fns
        self.labels = labels
        self._same: dict = {}

    def same(self, a: int, b: int) -> bool:
        """``family.same`` of owners ``a`` and ``b``, asked once a pair."""
        hit = self._same.get((a, b))
        if hit is None:
            hit = self._same[(a, b)] = bool(
                self.family.same(self.fns[a], self.fns[b]))
        return hit

    def level(self, lo, hi, owner, cnt, tree: list):
        """Every combine of one tree level in one pass: appends the
        level's ``(length, shape)`` list to ``tree`` and returns the next
        level's columns."""
        select = self.select
        m = len(cnt)
        npair = m // 2
        fidx = np.repeat(np.arange(m), cnt)      # function of each piece
        pair = fidx >> 1
        src = fidx & 1
        cF = cnt[0:2 * npair:2]
        cG = cnt[1:2 * npair:2]
        big = np.maximum(cF, cG)
        live = (cF > 0) & (cG > 0)
        all_live = bool(live.all())
        if all_live:
            P = np.arange(int(cnt[:2 * npair].sum()))
        else:
            P = np.nonzero(np.append(live, False)[pair])[0]

        # Step 2: records of the live pairs, merged by (pair, endpoint, tie).
        n_rec = 2 * len(P)
        r_piece = np.repeat(P, 2)
        r_tie = np.zeros(n_rec, dtype=np.int8)
        r_tie[0::2] = 1
        r_end = np.empty(n_rec)
        r_end[0::2] = lo[P]
        r_end[1::2] = hi[P]
        r_pair = pair[r_piece]
        order = np.lexsort((r_tie, r_end, r_pair))
        r_piece = r_piece[order]
        r_tie = r_tie[order]
        r_end = r_end[order]
        r_pair = r_pair[order]
        r_src = src[r_piece]

        # Step 3: the active piece of f and of g on the gap after each
        # record (-1: none; a Right record ends its piece).
        idx = np.arange(n_rec)
        first = np.ones(n_rec, dtype=bool)
        first[1:] = r_pair[1:] != r_pair[:-1]
        block = np.maximum.accumulate(np.where(first, idx, 0))
        left = np.where(r_tie == 1, r_piece, -1)
        at = np.maximum.accumulate(
            np.where(r_src == np.array([[0], [1]]), idx, -1), axis=1)
        pf, pg = np.where(at >= block, left[at], -1)
        nxt = np.full(n_rec, _INF)               # +inf after a pair's last
        nxt[:-1] = np.where(first[1:], _INF, r_end[1:])

        # Step 4: subpieces per gap, as (gap, lo, hi, owner) columns.  Each
        # gap is clipped to its active pieces (the missing one of a
        # one-sided gap reads the sentinel piece [-inf, +inf] at index
        # -1); a degenerate gap yields nothing.
        g = np.nonzero(np.isfinite(r_end) & ((pf >= 0) | (pg >= 0)))[0]
        glo, ghi, pf, pg = r_end[g], nxt[g], pf[g], pg[g]
        keep = ~(ghi - glo <= _eps(glo))
        g, glo, ghi, pf, pg = g[keep], glo[keep], ghi[keep], pf[keep], pg[keep]
        lo_s = np.append(lo, -_INF)
        hi_s = np.append(hi, _INF)
        clo = np.where(lo_s[pf] > glo, lo_s[pf], glo)
        clo = np.where(lo_s[pg] > clo, lo_s[pg], clo)
        chi = np.where(hi_s[pf] < ghi, hi_s[pf], ghi)
        chi = np.where(hi_s[pg] < chi, hi_s[pg], chi)
        keep = np.nonzero(~(chi - clo <= _eps(clo)))[0]
        g, clo, chi, pf, pg = g[keep], clo[keep], chi[keep], pf[keep], pg[keep]
        both = (pf >= 0) & (pg >= 0)
        parts = []
        if select:
            one = ~both
            parts.append((g[one], clo[one], chi[one],
                          owner[np.maximum(pf[one], pg[one])]))
        g, clo, chi = g[both], clo[both], chi[both]
        of, og = owner[pf[both]], owner[pg[both]]
        if select:
            same = np.array([self.same(a, b) for a, b in
                             zip(of.tolist(), og.tolist())], dtype=bool)
            parts.append((g[same], clo[same], chi[same], of[same]))
            cross = ~same
            hidx, hlo, hhi, hown = self.family.resolve_gaps(
                clo[cross], chi[cross], of[cross], og[cross], self.fns,
                self.op)
            parts.append((g[cross][hidx], hlo, hhi, hown))
        else:
            parts.append((g, clo, chi, self._mapped(of, og)))

        s_gap, s_lo, s_hi, s_own = (np.concatenate(c) for c in zip(*parts))
        if len(parts) > 1:
            order = np.argsort(s_gap, kind="stable")
            s_gap, s_lo, s_hi, s_own = (s_gap[order], s_lo[order],
                                        s_hi[order], s_own[order])
        s_pair = r_pair[s_gap]

        # Charge shapes: (L, half, next_pow2(total), max_per, total == 0).
        total = np.bincount(s_pair, minlength=npair)
        max_per = np.zeros(npair, dtype=np.int64)
        if n_rec:
            per_gap = np.bincount(s_gap, minlength=n_rec)
            max_per[r_pair[first]] = np.maximum.reduceat(
                per_gap, first.nonzero()[0])
        half = _pow2(2 * big)
        lengths = (4 * np.maximum(1, big)).tolist()
        shapes = zip((2 * half).tolist(), half.tolist(),
                     _pow2(total).tolist(), max_per.tolist(),
                     (total == 0).tolist())
        if all_live:
            tree.append(list(zip(lengths, shapes)))
        else:
            tree.append([(n, shape if ok else None) for n, ok, shape
                         in zip(lengths, live.tolist(), shapes)])

        # Step 6: fuse touching neighbours of one pair: equal owners, or
        # equal labels and ``same`` curves.
        n_sub = len(s_gap)
        start = np.ones(n_sub, dtype=bool)
        if n_sub > 1:
            a, b = s_own[:-1], s_own[1:]
            touch = ((s_pair[1:] == s_pair[:-1])
                     & (s_lo[1:] - s_hi[:-1] <= _eps(s_lo[1:])))
            fuse = touch & (a == b)
            cand = np.nonzero(touch & (a != b))[0]
            labels = self.labels
            fuse[cand] = [labels[x] == labels[y] and self.same(x, y)
                          for x, y in zip(a[cand].tolist(),
                                          b[cand].tolist())]
            start[1:] = ~fuse
        runs = start.nonzero()[0]
        ends = np.empty_like(runs)
        ends[:-1] = runs[1:] - 1
        ends[-1:] = n_sub - 1
        nf, nlo, nhi, nown = s_pair[runs], s_lo[runs], s_hi[ends], s_own[runs]

        # The next level: combine outputs, pass-throughs, the carried
        # function.
        rest = None
        if select and not all_live:
            # A pair with an empty operand passes the other one through.
            rest = (pair < npair) & ~np.append(live, False)[pair]
            rest[rest] = src[rest] == (cF == 0)[pair[rest]]
        if m % 2:
            carry = fidx == 2 * npair
            rest = carry if rest is None else rest | carry
        if rest is not None and rest.any():
            nf = np.concatenate((nf, pair[rest]))
            order = np.argsort(nf, kind="stable")
            nf = nf[order]
            nlo = np.concatenate((nlo, lo[rest]))[order]
            nhi = np.concatenate((nhi, hi[rest]))[order]
            nown = np.concatenate((nown, owner[rest]))[order]
        return nlo, nhi, nown, np.bincount(nf, minlength=npair + m % 2)

    def _mapped(self, of: np.ndarray, og: np.ndarray) -> np.ndarray:
        """New owners ``family.combine(f, g, op)`` labelled ``(lf, lg)``,
        one per two-sided gap of an arithmetic map."""
        fns, labels = self.fns, self.labels
        first = len(fns)
        for a, b in zip(of.tolist(), og.tolist()):
            fns.append(self.family.combine(fns[a], fns[b], self.op))
            labels.append((labels[a], labels[b]))
        return np.arange(first, len(fns), dtype=np.int64)
