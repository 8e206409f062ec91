"""Convex-hull membership over time — Section 4.2 (Theorem 4.5).

For a planar system ``S = {P_0, ..., P_{n-1}}`` with k-motion, this module
computes the ordered intervals of time during which a query point is an
extreme point of ``hull(S)``.

Following the paper: ``T_j(t)`` is the angle of the vector from the query
point to ``P_j`` (range ``(-pi, pi]``); ``G_j``/``B_j`` restrict ``T_j`` to
where it is non-negative/negative (partial functions with at most ``k``
transitions each — Figure 5 / Lemma 3.3); and

* ``a(t), b(t)`` are the lower/upper envelopes of the ``G_j``,
* ``c(t), d(t)`` are the lower/upper envelopes of the ``B_j``.

Lemma 4.4: the query point is extreme at ``t`` iff ``a - d >= pi``, or
``b - c <= pi``, or the ``G``'s are all undefined, or the ``B``'s are all
undefined.  Each envelope has at most ``lambda(n, 4k)`` pieces (Lemma 4.3),
and the whole computation runs in ``Theta(lambda^{1/2}(n, 4k))`` mesh time /
``Theta(log^2 n)`` hypercube time.

Angle curves never need to be represented numerically as angles except for
point evaluations: equality of two angles means the two vectors are parallel
and similarly oriented (a degree-``2k`` polynomial condition plus a sign
test), and a difference of ``pi`` means parallel and oppositely oriented —
exactly the reductions in the proof of Theorem 4.5.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import DegenerateSystemError
from ..kinetics.batch import warm_root_candidates
from ..kinetics.motion import PointSystem
from ..kinetics.piecewise import INF, Piece, PiecewiseFunction
from ..kinetics.polynomial import Polynomial
from ..machines.machine import Machine
from ..ops._common import next_pow2
from ..trace.tracer import trace_span
from .containment import indicator_intervals
from .envelope import (
    _build_envelopes,
    _charge_envelope,
    combine_pairwise,
    combine_pairwise_serial,
)
from .family import (
    CurveFamily,
    PolynomialFamily,
    _candidates,
    _crossings,
    _distinct_pairs,
    _horner,
    _padded,
    _rows,
    _subintervals,
)

__all__ = ["AngleCurve", "AngleFamily", "hull_membership_intervals",
           "all_hull_membership_intervals", "angle_restrictions",
           "is_extreme_at"]

_EPS = 1e-9


class AngleCurve:
    """``T_j``: the angle ``atan2(dy(t), dx(t))`` of a moving direction.

    ``dx``/``dy`` are the coordinate differences ``p_x(f_j) - p_x(f_q)``
    etc., polynomials of degree at most ``k``.
    """

    __slots__ = ("dx", "dy", "j", "_hash")

    def __init__(self, dx: Polynomial, dy: Polynomial, j):
        self.dx = dx
        self.dy = dy
        self.j = j
        self._hash = None

    def __call__(self, t: float) -> float:
        return math.atan2(self.dy(t), self.dx(t))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AngleCurve(j={self.j})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, AngleCurve):
            return NotImplemented
        return self.j == other.j and self.dx == other.dx and self.dy == other.dy

    def __hash__(self) -> int:
        # Memoised, as Polynomial's: curves key the crossing caches.
        h = self._hash
        if h is None:
            h = self._hash = hash((self.j, self.dx, self.dy))
        return h


def _cross(f: AngleCurve, g: AngleCurve) -> Polynomial:
    """Parallel test polynomial: zero iff the two vectors are parallel."""
    return f.dx * g.dy - g.dx * f.dy


def _dot(f: AngleCurve, g: AngleCurve) -> Polynomial:
    return f.dx * g.dx + f.dy * g.dy


class AngleFamily(CurveFamily):
    """Angle curves of a k-motion system: at most ``2k`` pairwise crossings.

    Two angle curves agree exactly when the vectors are parallel *and*
    similarly oriented: roots of the degree-``2k`` cross polynomial filtered
    by the sign of the dot product (Theorem 4.5 proof).  The per-pair
    ``(cross, dot)`` polynomials are memoised via the base-class crossing
    cache; crossings and opposite_times are cheap filters over them.
    """

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("motion degree k must be non-negative")
        self.k = k
        self.s = 2 * max(1, k)

    def value(self, f: AngleCurve, t: float) -> float:
        return f(t)

    def _compute_pair(self, f: AngleCurve, g: AngleCurve):
        return _cross(f, g), _dot(f, g)

    def _warm_prefetched(self, entries: list) -> None:
        warm_root_candidates([cross for cross, _ in entries])

    def _parallel_times(self, f: AngleCurve, g: AngleCurve, lo: float,
                        hi: float, orientation: int) -> list[float]:
        """Roots of the cross polynomial in ``(lo, hi)`` whose dot product
        has the requested sign (+1 similarly, -1 oppositely oriented)."""
        cross, dot = self._pair_entry(f, g)
        if cross.is_zero():
            return []
        eps = _EPS * max(1.0, abs(lo))
        out = []
        for r in cross.real_roots(lo, hi):
            if r <= lo + eps or (math.isfinite(hi) and r >= hi - eps):
                continue
            if dot(r) * orientation > 0:
                out.append(r)
        return out

    def crossings(self, f: AngleCurve, g: AngleCurve, lo: float,
                  hi: float) -> list[float]:
        return self._parallel_times(f, g, lo, hi, +1)

    def opposite_times(self, f: AngleCurve, g: AngleCurve, lo: float,
                       hi: float) -> list[float]:
        """Times in ``(lo, hi)`` when the vectors are parallel and
        *oppositely* oriented — where ``T_f - T_g`` crosses ``+-pi``."""
        return self._parallel_times(f, g, lo, hi, -1)

    def same(self, f: AngleCurve, g: AngleCurve) -> bool:
        if f is g:
            return True
        cross, dot = self._pair_entry(f, g)
        if not cross.is_zero():
            return False
        # Parallel for all time; same curve iff same orientation.
        return dot.sign_at_infinity() > 0

    def resolve_gaps(self, lo: np.ndarray, hi: np.ndarray, f: np.ndarray,
                     g: np.ndarray, fns: Sequence[AngleCurve], op: str):
        """:meth:`CurveFamily.resolve_gaps` over coefficient columns.

        The subpieces equal per-gap :meth:`split_gap` calls after one
        :meth:`prefetch_crossings`:

        * pair entries go through the pair cache in first-gap order, new
          ones from :meth:`_compute_pair` (one miss per new pair, one hit
          per gap);
        * the cross polynomials' root candidates come from
          ``family._candidates`` and ``family._crossings`` filters them
          for all gaps at once, as ``real_roots`` and the open-interval
          test of :meth:`_parallel_times` do;
        * the dot-sign filter is one batched Horner scheme over the dot
          rows at the clamped roots;
        * midpoint winners evaluate ``dx`` / ``dy`` by batched Horner
          and take ``math.atan2`` of each, as :meth:`value` does.
        """
        n = len(lo)
        if not n:
            return f, lo, hi, g  # no gaps: the empty columns serve
        pid, pf, pg = _distinct_pairs(f, g)
        pairs = [(fns[x], fns[y]) for x, y in zip(pf.tolist(), pg.tolist())]
        entries, fresh = self._gap_entries(
            pairs, n, lambda idx: [self._compute_pair(*pairs[i])
                                   for i in idx])
        high = [c for c, _ in fresh if c.degree >= 3]
        if high:
            warm_root_candidates(high)
        cands, count = _candidates([c for c, _ in entries])
        roots, kept = _crossings(cands[pid], count[pid], lo, hi)
        at = kept.nonzero()
        if len(at[0]):
            dots = _padded([d._cl for _, d in entries], 0.0)[0]
            kept[at] = _horner(dots, pid[at[0]], roots[at]) > 0
        s_gap, a, b, mid = _subintervals(lo, hi, roots, kept)

        # Winners at the midpoints: T_f(mid) against T_g(mid).
        own, rf, rg = _rows(pf, pg)
        X = _padded([fns[o].dx._cl for o in own], 0.0)[0]
        Y = _padded([fns[o].dy._cl for o in own], 0.0)[0]
        sp = pid[s_gap]
        which = np.concatenate((rf[sp], rg[sp]))
        t = np.concatenate((mid, mid))
        va, vb = np.array(list(map(
            math.atan2, _horner(Y, which, t).tolist(),
            _horner(X, which, t).tolist()))).reshape(2, -1)
        f_wins = va <= vb if op == "min" else va >= vb
        return s_gap, a, b, np.where(f_wins, f[s_gap], g[s_gap])


def angle_restrictions(system: PointSystem, query: int = 0):
    """The partial functions ``G_j`` and ``B_j`` of Section 4.2.

    ``G_j`` is ``T_j`` restricted to ``T_j >= 0`` — equivalently ``dy >= 0``
    (when ``dy = 0`` the angle is 0 or pi, both non-negative) — and ``B_j``
    to ``T_j < 0``.  Each has at most ``k`` transitions (roots of ``dy``),
    matching Lemma 3.3's hypotheses.
    """
    if system.dimension != 2:
        raise DegenerateSystemError("hull membership is a planar problem")
    n = len(system)
    if n < 2:
        raise DegenerateSystemError("need at least two points")
    fq = system[query]
    gs, bs = [], []
    for j, m in enumerate(system):
        if j == query:
            continue
        dx = m[0] - fq[0]
        dy = m[1] - fq[1]
        curve = AngleCurve(dx, dy, j)
        # Split at roots of dy (sign changes of the angle = G/B boundary)
        # and of dx (jump discontinuities of T when the vector passes
        # through the query point or along the x-axis — Lemma 3.3 allows
        # at most k jumps and k transitions per curve).
        cuts = [0.0] + dy.real_roots(0.0) + dx.real_roots(0.0) + [INF]
        cuts = sorted(set(cuts))
        g_pieces, b_pieces = [], []
        for a, b in zip(cuts, cuts[1:]):
            if b - a <= _EPS * max(1.0, abs(a)):
                continue
            mid = a + 1.0 if math.isinf(b) else 0.5 * (a + b)
            if dy(mid) >= 0:
                g_pieces.append(Piece(a, b, curve, j))
            else:
                b_pieces.append(Piece(a, b, curve, j))
        gs.append(PiecewiseFunction(g_pieces, validate=False))
        bs.append(PiecewiseFunction(b_pieces, validate=False))
    return gs, bs


def _pair_indicator(F: PiecewiseFunction, G: PiecewiseFunction,
                    family: AngleFamily, predicate: str,
                    machine: Machine | None) -> PiecewiseFunction:
    """Indicator pieces of ``F - G >= pi`` (predicate="ge") or
    ``F - G <= pi`` ("le") on the common domain, 0 elsewhere left as gaps.

    The difference of two angle curves is continuous on each nondegenerate
    piece intersection and crosses ``pi`` only at parallel-opposite
    instants, so each intersection splits into at most ``2k + 1``
    constant-indicator subpieces (Lemma 2.6).  Data movement is the
    Lemma 3.1 pattern: one merge, fills, Theta(1) local work, one pack;
    charged on ``machine`` when given.
    """
    out = []
    overlaps = []
    for p in F.pieces:
        for q in G.pieces:
            lo, hi = max(p.lo, q.lo), min(p.hi, q.hi)
            if hi - lo > _EPS * max(1.0, abs(lo)):
                overlaps.append((p, q, lo, hi))
    family.prefetch_crossings(
        dict.fromkeys((p.fn, q.fn) for p, q, _, _ in overlaps)
    )
    for p, q, lo, hi in overlaps:
        cuts = [lo, *family.opposite_times(p.fn, q.fn, lo, hi), hi]
        for a, b in zip(cuts, cuts[1:]):
            if b - a <= _EPS * max(1.0, abs(a)):
                continue
            mid = a + 1.0 if math.isinf(b) else 0.5 * (a + b)
            diff = p.fn(mid) - q.fn(mid)
            sat = diff >= math.pi if predicate == "ge" else diff <= math.pi
            out.append(
                Piece(a, b, Polynomial.constant(1.0 if sat else 0.0),
                      (p.label, q.label))
            )
    out.sort(key=lambda r: r.lo)
    if machine is not None:
        m = next_pow2(max(2, 2 * (len(F.pieces) + len(G.pieces))))
        machine.local(m, count=family.s + 1)
        machine.monotone_route(m)
    return PiecewiseFunction(out, validate=False).fused(
        lambda x, y: x.fn == y.fn
    )


def _totalize(ind: PiecewiseFunction, fill_value: float = 0.0) -> PiecewiseFunction:
    """Fill domain gaps of an indicator with constant ``fill_value`` pieces."""
    fill = Polynomial.constant(fill_value)
    out = []
    cursor = 0.0
    for p in ind.pieces:
        if p.lo > cursor + _EPS * max(1.0, abs(cursor)):
            out.append(Piece(cursor, p.lo, fill, None))
        out.append(p)
        cursor = p.hi
    if math.isfinite(cursor):
        out.append(Piece(cursor, INF, fill, None))
    return PiecewiseFunction(out, validate=False).fused(
        lambda x, y: x.fn == y.fn
    )


def _undefined_indicator(env: PiecewiseFunction) -> PiecewiseFunction:
    """1 exactly where ``env`` is undefined (conditions 3/4 of Lemma 4.4)."""
    one = Polynomial.constant(1.0)
    zero = Polynomial.constant(0.0)
    out = []
    cursor = 0.0
    for p in env.pieces:
        if p.lo > cursor + _EPS * max(1.0, abs(cursor)):
            out.append(Piece(cursor, p.lo, one, None))
        out.append(Piece(p.lo, p.hi, zero, None))
        cursor = p.hi
    if math.isfinite(cursor):
        out.append(Piece(cursor, INF, one, None))
    if not env.pieces:
        return PiecewiseFunction([Piece(0.0, INF, one, None)])
    return PiecewiseFunction(out, validate=False).fused(
        lambda x, y: x.fn == y.fn
    )


def hull_membership_intervals(machine: Machine | None, system: PointSystem,
                              query: int = 0) -> list[tuple[float, float]]:
    """Theorem 4.5: ordered intervals when ``P_query`` is a hull vertex.

    ``machine=None`` runs the serial path; otherwise the envelopes
    and combines run on the machine, totalling
    ``Theta(lambda^{1/2}(n, 4k))`` mesh / ``Theta(log^2 n)`` hypercube time.
    """
    with trace_span("hull_membership",
                    None if machine is None else machine.metrics,
                    category="driver", n=len(system), query=query):
        return _membership_body(machine, system, query)


#: Lemma 4.4's envelopes: a, b (min, max of the G's) and c, d (of the B's).
_ENVELOPES = ((0, "min"), (0, "max"), (1, "min"), (1, "max"))


def _envelope_trees(restrictions) -> list:
    """The trees of the a, b, c, d envelopes of every query's ``(G's,
    B's)`` restrictions, in that order: the defined functions, and the
    op."""
    return [([f for f in gs_bs[side] if len(f)], op)
            for gs_bs in restrictions for side, op in _ENVELOPES]


def _membership_body(machine: Machine | None, system: PointSystem,
                     query: int) -> list[tuple[float, float]]:
    fam = AngleFamily(max(1, system.k))
    trees = _envelope_trees([angle_restrictions(system, query)])
    return _membership_steps(machine, fam, trees,
                             _build_envelopes(machine, trees, fam))


def _membership_steps(machine: Machine | None, fam: AngleFamily,
                      trees: list, built: list) -> list[tuple[float, float]]:
    """Theorem 4.5 for one query from its four built envelopes."""
    const_fam = PolynomialFamily(0)

    # Step 1: the four envelopes a, b, c, d (Theorem 3.4 on partial fns),
    # built together as independent instances and charged one by one.
    a0, b0, c0, d0 = [_charge_envelope(machine, fns, fam, op, tree)
                      for (fns, op), tree in zip(trees, built)]

    # Steps 2–3: indicator functions A, B (pi-threshold on differences)
    # and C, D (joint undefinedness).
    A0 = _totalize(_pair_indicator(a0, d0, fam, "ge", machine))
    B0 = _totalize(_pair_indicator(b0, c0, fam, "le", machine))
    C0 = _undefined_indicator(a0)
    D0 = _undefined_indicator(c0)

    # Step 4: H = max(A, B, C, D) via Theta(1) combine stages.
    def comb(F, G):
        if machine is None:
            return combine_pairwise_serial(F, G, const_fam, "max")
        return combine_pairwise(machine, F, G, const_fam, "max")

    H0 = comb(comb(A0, B0), comb(C0, D0))

    # Step 5: pack the intervals where H = 1.
    return indicator_intervals(machine, H0)


def all_hull_membership_intervals(machine: Machine | None,
                                  system: PointSystem) -> list[list[tuple[float, float]]]:
    """Theorem 4.5 for every point at once: the full kinetic-hull history.

    Runs the ``n`` membership instances; on a machine they occupy disjoint
    strings of ``n * lambda(n, 4k)`` PEs and run *simultaneously*, so the
    level cost is the maximum over queries (the same parallel-composition
    rule as Theorem 3.2).  The host builds all ``4n`` envelopes as one
    forest, then charges each instance on its own machine.  Returns
    ``intervals[q]`` for each query ``q``; at any time ``t`` the set
    ``{q : t in intervals[q]}`` is exactly the vertex set of
    ``hull(S(t))``.  The instances run on fresh machines of ``machine``'s
    topology, so a :class:`~repro.machines.machine.MachineGroup` (which
    has none) raises :class:`~repro.errors.OperationContractError`.
    """
    with trace_span("all_hull_membership",
                    None if machine is None else machine.metrics,
                    category="driver", n=len(system)):
        return _all_membership_body(machine, system)


def _all_membership_body(machine: Machine | None,
                         system: PointSystem) -> list[list[tuple[float, float]]]:
    n = len(system)
    subs = [None] * n
    if machine is not None:
        subs = [type(machine)(machine.topology,
                              randomized=getattr(machine, "randomized",
                                                 False))
                for _ in range(n)]
    fam = AngleFamily(max(1, system.k))
    trees = _envelope_trees([angle_restrictions(system, q)
                             for q in range(n)])
    built = _build_envelopes(machine, trees, fam)
    out = []
    for q, sub in enumerate(subs):
        own = slice(4 * q, 4 * q + 4)
        with trace_span("hull_membership",
                        None if sub is None else sub.metrics,
                        category="driver", n=n, query=q):
            out.append(_membership_steps(sub, fam, trees[own], built[own]))
    if machine is not None and subs:
        # Simultaneous instances: charge the slowest.  Wall-clock adds from
        # every instance — the host ran them one after another.
        branch_metrics = [sub.metrics for sub in subs]
        worst = max(branch_metrics, key=lambda b: b.time)
        machine.metrics.absorb(worst)
        for b in branch_metrics:
            if b is not worst:
                machine.metrics.absorb_wall(b)
    return out


def is_extreme_at(system: PointSystem, query: int, t: float) -> bool:
    """Brute-force oracle: is the query point a hull vertex at time ``t``?

    Uses the angular-gap criterion: the query point is extreme iff the
    directions towards all other points leave an open angular gap greater
    than pi (all points strictly inside a half-plane boundary through it).
    """
    pos = system.positions(t)
    q = pos[query]
    angles = sorted(
        math.atan2(p[1] - q[1], p[0] - q[0])
        for i, p in enumerate(pos) if i != query
    )
    if not angles:
        return True
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(2 * math.pi - (angles[-1] - angles[0]))
    return max(gaps) > math.pi + 1e-12
