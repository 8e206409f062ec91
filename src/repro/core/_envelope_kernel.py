"""Level-synchronous Theorem 3.2 geometry: one columnar pass per tree level.

Theorem 3.2 runs every sibling combine of a level at the same time, on
disjoint substrings of the machine, and Theorem 4.5 (like Theorem 4.6's
extents) runs several envelopes as independent instances on disjoint PE
strings.  This kernel computes them the same way on the host: it takes a
*forest* of independent combine trees, each with its own op, and runs
level ``k`` of every tree as one batched pass over columns, so an
``n``-curve envelope costs ``ceil(log2 n)`` passes instead of ``n - 1``
per-combine walks (:func:`repro.core.envelope._combine_geometry`), and a
forest of small envelopes shares each pass.  A pass has a fixed cost of
a few dozen array operations, so it runs only levels whose forest holds
at least :data:`MIN_RECORDS` records; the caller walks the small levels
left, combine by combine, as it walks single combines.

Columns
-------
A level holds every piece of every function of every tree as ``lo`` /
``hi`` (float64) and ``owner``, an index into a per-forest table of the
distinct ``(fn, label)`` pairs of the input pieces, plus the function
bounds as per-function piece counts ``cnt`` and the per-tree function
counts ``m`` (functions are stored one after the other, tree by tree, in
order).  :class:`~repro.kinetics.piecewise.Piece` objects are built once,
for the functions handed back.

Each function's next-level slot is its *group*: ``gstart[tree] +
local_index // 2``.  A group of two functions is a combine; a group of
one (a tree's odd last function, or the whole of a finished tree) is
carried to the next level unchanged.

The steps of Lemma 3.1 map onto the columns as follows.

* **Step 2 (merge).**  Records are laid out in the walk's insertion order
  (per piece Left then Right, ``F``'s pieces before ``G``'s) and ordered
  by one stable ``np.lexsort`` on (group, endpoint, tie): each group's run
  is exactly the walk's ``(endpoint, tie)``-sorted record list.
* **Step 3 (active pieces).**  The last ``F`` and ``G`` record at or
  before each record comes from a segmented ``np.maximum.accumulate``; a
  gap ends at the next record's endpoint, or at +inf after a group's last
  record.
* **Step 4 (gaps).**  One-sided gaps are clipped to their piece;
  two-sided gaps of ``family.same`` curves yield one subpiece; the rest go
  to :meth:`CurveFamily.resolve_gaps`, in one call per selection op
  present in the level.  Arithmetic maps add one owner
  (``family.combine``) per two-sided gap.
* **Step 6 (fuse).**  Touching neighbours within a group fuse when their
  owners are equal, or when their labels are equal and ``family.same``
  holds (the rule of :func:`repro.core.envelope._fuse_host`).

``family.same`` is asked through :meth:`CurveFamily.same_columns`, one
table (or memo) for the whole forest.

Every float is produced by the same IEEE operations, in the same order, as
the walk, so the pieces are identical to it, and each combine's charge
``shape`` is derived from the same counts.  A combine with an empty
operand passes the other operand through (nothing, for an arithmetic map)
with shape ``None``.
"""

from __future__ import annotations

import numpy as np

from ..kinetics.piecewise import Piece, PiecewiseFunction
from ..trace.registry import get_counter
from .family import CurveFamily

__all__ = ["envelope_levels"]

#: Tolerance below which an interval is considered degenerate
#: (``core.envelope._EPS``).
_EPS = 1e-9

_INF = np.inf

#: The ops a tree may carry, by code; the selections come first.
_OPS = ("min", "max", "sum", "diff", "product")

#: Columnar passes run (one per forest level).
_LEVELS = get_counter("envelope.levels_columnar")


def _eps(t: np.ndarray) -> np.ndarray:
    """``core.envelope._eps`` elementwise, for finite ``t``."""
    return _EPS * np.maximum(np.abs(t), 1.0)


def _pow2(x: np.ndarray) -> np.ndarray:
    """``ops._common.next_pow2`` elementwise (exact for counts < 2**53)."""
    v = np.maximum(x, 1) - 1
    return np.left_shift(1, np.frexp(v.astype(float))[1]).astype(np.int64)


#: Fewest Left/Right records (two per piece) a forest level needs to be
#: run here: below it, one Python walk per combine
#: (``core.envelope._combine_geometry``) beats the columnar pass's fixed
#: cost of a few dozen array operations per level.  Fixed from the
#: measured crossover (EXPERIMENTS.md, "Level-synchronous envelope
#: geometry" and "Envelope forests").
MIN_RECORDS = 96


def envelope_levels(trees: list, family: CurveFamily) -> list:
    """The Theorem 3.2 combine trees of a forest, run level by level while
    a forest level holds at least :data:`MIN_RECORDS` records.

    ``trees`` lists independent ``(functions, op)`` trees of one family.
    Returns, per tree, ``(functions, levels)``: the functions of the first
    level not run (a single one when the tree is done) and, per level run,
    its combines as ``(sub-machine length, shape)`` pairs, exactly as the
    per-combine walk builds them (``shape`` is ``None`` for a combine with
    an empty operand).  A tree emits no level once it is down to one
    function.
    """
    pieces = [p for level, _ in trees for F in level for p in F.pieces]
    if 2 * len(pieces) < MIN_RECORDS or all(
            len(level) < 2 for level, _ in trees):
        return [(level, []) for level, _ in trees]
    # Owners: the input pieces' distinct (fn, label) pairs, by identity.
    keys = [(id(p.fn), id(p.label)) for p in pieces]
    firsts = dict(zip(keys, pieces))
    index = {key: o for o, key in enumerate(firsts)}
    # A tree of one function has no combine, so its op is never read.
    forest = _Forest(family, [_OPS.index(op) if len(level) > 1 else 0
                              for level, op in trees],
                     [p.fn for p in firsts.values()],
                     [p.label for p in firsts.values()])
    cols = (np.array([p.lo for p in pieces], dtype=float),
            np.array([p.hi for p in pieces], dtype=float),
            np.array(list(map(index.__getitem__, keys)), dtype=np.int64),
            np.array([len(F.pieces) for level, _ in trees for F in level],
                     dtype=np.int64),
            np.array([len(level) for level, _ in trees], dtype=np.int64))
    levels: list[list] = [[] for _ in trees]
    while (cols[4] > 1).any() and 2 * len(cols[0]) >= MIN_RECORDS:
        cols = forest.level(*cols, levels)
        _LEVELS.value += 1
    lo, hi, owner, cnt, m = cols
    fns, labels = forest.fns, forest.labels
    out = [Piece(a, b, fns[o], labels[o])
           for a, b, o in zip(lo.tolist(), hi.tolist(), owner.tolist())]
    ends = np.cumsum(cnt).tolist()
    funcs = [PiecewiseFunction(out[e - k:e], validate=False)
             for k, e in zip(cnt.tolist(), ends)]
    tree_ends = np.cumsum(m).tolist()
    return [(funcs[e - k:e], lv)
            for k, e, lv in zip(m.tolist(), tree_ends, levels)]


class _Forest:
    """The per-call state: tree ops, the owner table and the ``same``
    memo."""

    def __init__(self, family: CurveFamily, ops: list, fns: list,
                 labels: list):
        self.family = family
        self.ops = np.array(ops, dtype=np.int64)
        self.fns = fns
        self.labels = labels
        self._same = family.same_columns(fns)

    def same(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``family.same`` of owners ``a[i]`` and ``b[i]``, for all ``i``."""
        if not len(a):
            return np.zeros(0, dtype=bool)
        return self._same(a, b)

    def level(self, lo, hi, owner, cnt, m, levels: list):
        """Every combine of one forest level in one pass: appends each
        unfinished tree's ``(length, shape)`` list to its entry of
        ``levels`` and returns the next level's columns."""
        n_fn = len(cnt)
        tree_f = np.repeat(np.arange(len(m)), m)  # tree of each function
        local = np.arange(n_fn) - (np.cumsum(m) - m)[tree_f]
        ngroup = (m + 1) >> 1
        grp_f = (np.cumsum(ngroup) - ngroup)[tree_f] + (local >> 1)
        src_f = local & 1
        n_grp = int(ngroup.sum())
        first_f = src_f == 0
        cF = np.zeros(n_grp, dtype=np.int64)
        cG = np.zeros(n_grp, dtype=np.int64)
        cF[grp_f[first_f]] = cnt[first_f]
        cG[grp_f[~first_f]] = cnt[~first_f]
        paired = np.zeros(n_grp, dtype=bool)
        paired[grp_f[~first_f]] = True
        g_op = np.repeat(self.ops, ngroup)
        live = (cF > 0) & (cG > 0)
        all_live = bool(live.all())
        fidx = np.repeat(np.arange(n_fn), cnt)   # function of each piece
        pair = grp_f[fidx]                       # its group
        src = src_f[fidx]
        P = np.arange(len(lo)) if all_live else np.nonzero(live[pair])[0]

        # Step 2: records of the live groups, merged by (group, endpoint,
        # tie).
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
        nxt = np.full(n_rec, _INF)               # +inf after a group's last
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
        code = g_op[r_pair[g]]
        select = code < 2
        both = (pf >= 0) & (pg >= 0)
        parts = []
        one = ~both & select                     # maps: common domain only
        if one.any():
            parts.append((g[one], clo[one], chi[one],
                          owner[np.maximum(pf[one], pg[one])]))
        two = both & select
        if two.any():
            g2, lo2, hi2, code2 = g[two], clo[two], chi[two], code[two]
            of, og = owner[pf[two]], owner[pg[two]]
            same = self.same(of, og)
            parts.append((g2[same], lo2[same], hi2[same], of[same]))
            cross = np.nonzero(~same)[0]
            for c in np.unique(code2[cross]).tolist():
                sel = cross[code2[cross] == c]
                hidx, hlo, hhi, hown = self.family.resolve_gaps(
                    lo2[sel], hi2[sel], of[sel], og[sel], self.fns, _OPS[c])
                parts.append((g2[sel][hidx], hlo, hhi, hown))
        mapped = both & ~select
        if mapped.any():
            parts.append((g[mapped], clo[mapped], chi[mapped],
                          self._mapped(owner[pf[mapped]], owner[pg[mapped]],
                                       code[mapped])))

        if parts:
            s_gap, s_lo, s_hi, s_own = (np.concatenate(c)
                                        for c in zip(*parts))
        else:
            s_gap = s_own = np.zeros(0, dtype=np.int64)
            s_lo = s_hi = np.zeros(0)
        if len(parts) > 1:
            order = np.argsort(s_gap, kind="stable")
            s_gap, s_lo, s_hi, s_own = (s_gap[order], s_lo[order],
                                        s_hi[order], s_own[order])
        s_pair = r_pair[s_gap]

        # Charge shapes: (L, half, next_pow2(total), max_per, total == 0),
        # for the combines (the groups of two), tree by tree.
        total = np.bincount(s_pair, minlength=n_grp)
        max_per = np.zeros(n_grp, dtype=np.int64)
        if n_rec:
            per_gap = np.bincount(s_gap, minlength=n_rec)
            max_per[r_pair[first]] = np.maximum.reduceat(
                per_gap, first.nonzero()[0])
        comb = np.nonzero(paired)[0]
        big = np.maximum(cF[comb], cG[comb])
        half = _pow2(2 * big)
        total = total[comb]
        shapes = zip((2 * half).tolist(), half.tolist(),
                     _pow2(total).tolist(), max_per[comb].tolist(),
                     (total == 0).tolist())
        lengths = (4 * np.maximum(1, big)).tolist()
        if all_live:
            combines = list(zip(lengths, shapes))
        else:
            combines = [(n, shape if ok else None) for n, ok, shape
                        in zip(lengths, live[comb].tolist(), shapes)]
        ncomb = (m >> 1).tolist()
        for tree, k, e in zip(levels, ncomb, np.cumsum(m >> 1).tolist()):
            if k:
                tree.append(combines[e - k:e])

        # Step 6: fuse touching neighbours of one group: equal owners, or
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
            cand = cand[np.array(
                [labels[x] == labels[y] for x, y in
                 zip(a[cand].tolist(), b[cand].tolist())], dtype=bool)]
            fuse[cand] = self.same(a[cand], b[cand])
            start[1:] = ~fuse
        runs = start.nonzero()[0]
        ends = np.empty_like(runs)
        ends[:-1] = runs[1:] - 1
        ends[-1:] = n_sub - 1
        nf, nlo, nhi, nown = s_pair[runs], s_lo[runs], s_hi[ends], s_own[runs]

        # The next level: combine outputs, pass-throughs (a selection with
        # an empty operand passes the other one), carried functions.
        if not all_live:
            through = ~live & (~paired | (g_op < 2))
            rest = through[pair] & (src == (cF == 0)[pair])
            nf = np.concatenate((nf, pair[rest]))
            order = np.argsort(nf, kind="stable")
            nf = nf[order]
            nlo = np.concatenate((nlo, lo[rest]))[order]
            nhi = np.concatenate((nhi, hi[rest]))[order]
            nown = np.concatenate((nown, owner[rest]))[order]
        return nlo, nhi, nown, np.bincount(nf, minlength=n_grp), ngroup

    def _mapped(self, of: np.ndarray, og: np.ndarray,
                code: np.ndarray) -> np.ndarray:
        """New owners ``family.combine(f, g, op)`` labelled ``(lf, lg)``,
        one per two-sided gap of an arithmetic map."""
        fns, labels = self.fns, self.labels
        first = len(fns)
        for a, b, c in zip(of.tolist(), og.tolist(), code.tolist()):
            fns.append(self.family.combine(fns[a], fns[b], _OPS[c]))
            labels.append((labels[a], labels[b]))
        return np.arange(first, len(fns), dtype=np.int64)
