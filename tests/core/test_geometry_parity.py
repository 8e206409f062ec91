"""Byte parity of the envelope geometry against the reference array path.

Every host envelope runs one geometry (``_combine_geometry``,
``_envelope_geometry``), whose large Theorem 3.2 tree levels are one
columnar pass each (``core/_envelope_kernel.py``).  The reference array
path (``set_fast_combine(False)``) is an independent construction of the
same envelope: Lemma 3.1's record slots pushed through the data movement
operations.  Their pieces must agree exactly — ``lo``, ``hi``, ``label``
and the curve's coefficients compared with ``==``, never ``approx`` — on
every generator kind, including ``tie`` and ``near_degenerate``, for
total and partial inputs and every op.  The batched Step 4 of
``PolynomialFamily`` is also checked gap by gap against the scalar loop
it replaces, at the filters' tolerance edges, and every level strategy
must ask the crossing cache the same questions.

Test names keep the ``serial_sweep`` wording of the plane sweep that was
the reference before the array path, so their ids stay stable.
"""

from functools import cache

import numpy as np
import pytest

from repro.core.envelope import (
    _combine_pairwise_array,
    _envelope_array,
    _envelope_geometry,
    combine_pairwise,
    combine_pairwise_serial,
    envelope,
    normalize_inputs,
    set_fast_combine,
)
from repro.core import _envelope_kernel as envelope_kernel
from repro.core import family as family_module
from repro.core.family import CurveFamily, PolynomialFamily
from repro.core.hull_membership import AngleFamily, angle_restrictions
from repro.kinetics.piecewise import INF, Piece, PiecewiseFunction
from repro.kinetics import polynomial as polynomial_module
from repro.kinetics.polynomial import Polynomial
from repro.machines.machine import mesh_machine, serial_machine
from repro.verify.generators import (
    CURVE_KINDS,
    SYSTEM_KINDS,
    make_curves,
    make_system,
)

SIZES = (1, 2, 3, 5, 8, 33, 64, 257)


@pytest.fixture(params=["columnar", "mixed"])
def tree_levels(request, monkeypatch):
    """Run each tree under both level strategies: every level batched
    (``MIN_RECORDS = 0``), and the shipped split, where levels below
    ``MIN_RECORDS`` records are walked combine by combine."""
    if request.param == "columnar":
        monkeypatch.setattr(envelope_kernel, "MIN_RECORDS", 0)
    return request.param


def _poly_key(F):
    return [(p.lo, p.hi, p.label, p.fn.coeffs.tolist()) for p in F.pieces]


def _angle_key(F):
    return [(p.lo, p.hi, p.label, p.fn.j, p.fn.dx.coeffs.tolist(),
             p.fn.dy.coeffs.tolist()) for p in F.pieces]


def _array(inputs, family, op):
    """The reference array path's envelope of ``inputs``."""
    prev = set_fast_combine(False)
    try:
        return _envelope_array(serial_machine(), normalize_inputs(inputs),
                               family, op)
    finally:
        set_fast_combine(prev)


@cache
def _array_key(kind, n, s, partial, op):
    """:func:`_array` of one generator case, keyed (computed once for
    both level strategies)."""
    curves = make_curves(kind, n + s, n, s)
    inputs = _partial(curves, n) if partial else curves
    return _poly_key(_array(inputs, PolynomialFamily(s), op))


def _partial(curves, seed):
    """Each curve restricted to one to three random intervals, with gaps
    (some inputs end up empty, some reach +inf)."""
    rng = np.random.default_rng(seed)
    out = []
    for i, f in enumerate(curves):
        cuts = np.sort(np.round(rng.uniform(0.0, 12.0, 6) * 4) / 4).tolist()
        pieces = []
        for a, b in zip(cuts[0::2], cuts[1::2]):
            if b - a > 0.25 and rng.random() < 0.8:
                pieces.append(Piece(a, b, f, i))
        if rng.random() < 0.3:
            pieces.append(Piece(cuts[-1] + 0.5, INF, f, i))
        out.append(PiecewiseFunction(pieces))
    return out


@pytest.mark.usefixtures("tree_levels")
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", sorted(CURVE_KINDS))
def test_machine_geometry_matches_serial_sweep(kind, n):
    # The geometry against the array path, on the serial machine.
    for s in (1, 2):
        curves = make_curves(kind, n + s, n, s)
        for partial, inputs in ((False, curves), (True, _partial(curves, n))):
            for op in ("min", "max"):
                level = normalize_inputs(inputs)
                got, _ = _envelope_geometry(level, PolynomialFamily(s), op)
                want = _array_key(kind, n, s, partial, op)
                assert _poly_key(got) == want, (kind, n, s, partial, op)


@pytest.mark.usefixtures("tree_levels")
@pytest.mark.parametrize("kind", sorted(SYSTEM_KINDS))
def test_angle_envelopes_match_serial_sweep(kind):
    for n in (8, 16):
        system = make_system(kind, n, n, 1)
        for query in (0, n // 2):
            for restricted in angle_restrictions(system, query):
                for op in ("min", "max"):
                    got = envelope(mesh_machine(256), restricted,
                                   AngleFamily(1), op=op)
                    want = _array(restricted, AngleFamily(1), op)
                    assert _angle_key(got) == _angle_key(want), (kind, n, op)


def _boundary_gaps(f, g, rng):
    """Gaps whose ends sit on, or within the filters' tolerances of, the
    crossings of ``f`` and ``g`` (where range tests, clamps and dedupes
    decide), plus random and unbounded ones."""
    roots = (f - g).real_roots(0.0, 50.0)
    ends = [0.0, float(rng.uniform(0.0, 10.0))]
    for r in roots:
        for d in (0.0, 1e-10, 5e-9, 1e-8, 2e-8, 1e-6):
            ends += [r - d, r + d]
    ends = sorted(e for e in ends if e >= 0.0)
    gaps = []
    for i, a in enumerate(ends):
        gaps.append((a, np.inf))
        for b in ends[i + 1:i + 4]:
            if b - a > 1e-9 * max(1.0, a):
                gaps.append((a, b))
    return gaps


@pytest.mark.parametrize("op", ["min", "max"])
@pytest.mark.parametrize("kind", sorted(CURVE_KINDS))
def test_columnar_gaps_match_per_gap_split(kind, op):
    # PolynomialFamily.resolve_gaps against the scalar reference it
    # replaces (CurveFamily.resolve_gaps: prefetch, then split_gap per
    # gap), on gaps at the filters' tolerance boundaries: same subpieces,
    # same crossing-cache counters.
    rng = np.random.default_rng(len(kind))
    for s in (1, 2, 3):
        fns = make_curves(kind, s, 8, s)
        if s > 1:
            # Pairs whose difference has two roots 1e-9..1e-7 apart.
            for k, d in enumerate((2e-9, 6e-9, 1.2e-8, 3e-8, 1e-7)):
                f0 = fns[k % 8]
                fns += [f0, f0 + Polynomial.from_roots([2.5 + k, 2.5 + k + d],
                                                       leading=0.75)]
        lo, hi, f, g = [], [], [], []
        for i in range(0, len(fns), 2):
            if fns[i] == fns[i + 1]:
                continue
            for a, b in _boundary_gaps(fns[i], fns[i + 1], rng):
                lo.append(a)
                hi.append(b)
                f.append(i)
                g.append(i + 1)
        cols = (np.array(lo), np.array(hi), np.array(f), np.array(g))
        fast, slow = PolynomialFamily(s), PolynomialFamily(s)
        got = fast.resolve_gaps(*cols, fns, op)
        want = CurveFamily.resolve_gaps(slow, *cols, fns, op)
        assert [c.tolist() for c in got] == [c.tolist() for c in want]
        assert fast.cache_stats() == slow.cache_stats()


def test_batched_root_filter_matches_scalar():
    # The range test, clamp and dedupe of ``_filter_range`` followed by
    # ``crossings``' open-interval test, on candidates placed within the
    # tolerances of the gap ends and of each other.
    rng = np.random.default_rng(3)
    offsets = (0.0, 3e-9, 6e-9, 9e-9, 1.1e-8, 2e-8, 5e-8, 0.3)
    rows, los, his = [], [], []
    for _ in range(4000):
        lo = float(rng.choice([0.0, 0.5, 1.5, 7.25, 40.0]))
        hi = float(np.inf) if rng.random() < 0.2 else lo + float(
            rng.choice([1e-7, 0.5, 3.0]))
        anchor = lo if rng.random() < 0.5 or hi == np.inf else hi
        cands = sorted(anchor + float(rng.choice([-1, 1]))
                       * float(rng.choice(offsets))
                       for _ in range(int(rng.integers(1, 4))))
        rows.append(cands)
        los.append(lo)
        his.append(hi)
    width = max(map(len, rows))
    cands = np.array([r + [np.nan] * (width - len(r)) for r in rows])
    count = np.array([len(r) for r in rows])
    roots, kept = family_module._crossings(cands, count, np.array(los),
                                           np.array(his))
    for i, (cand, lo, hi) in enumerate(zip(rows, los, his)):
        eps = 1e-9 * max(1.0, abs(lo))
        want = [r for r in polynomial_module._filter_range(cand, lo, hi)
                if lo + eps < r and (not np.isfinite(hi) or r < hi - eps)]
        assert roots[i][kept[i]].tolist() == want, (cand, lo, hi)


@pytest.mark.parametrize("op", ["min", "max", "sum", "diff", "product"])
def test_single_combine_matches_serial(op):
    # One combine, serial and on machines, against the array path.
    for seed in range(6):
        curves = make_curves("random", seed, 2, 2)
        F, G = _partial(curves, seed)
        want = _poly_key(_combine_pairwise_array(
            serial_machine(), F, G, PolynomialFamily(2), op))
        got = combine_pairwise_serial(F, G, PolynomialFamily(2), op)
        assert _poly_key(got) == want, (seed, op)
        for machine in (serial_machine(), mesh_machine(64)):
            got = combine_pairwise(machine, F, G, PolynomialFamily(2), op)
            assert _poly_key(got) == want, (seed, op)


@pytest.mark.parametrize("op", ["min", "max"])
@pytest.mark.parametrize("kind", ["near_degenerate", "tie", "degree_boundary"])
def test_level_strategies_query_the_same_pairs(kind, op, monkeypatch):
    # Per-combine walks, the shipped split and all-columnar levels prefetch
    # exactly the pairs Step 4 queries, so the crossing-cache counters
    # agree, with each other and with the array path.
    curves = make_curves(kind, 259, 257, 2)
    stats = []
    for min_records in (float("inf"), envelope_kernel.MIN_RECORDS, 0):
        monkeypatch.setattr(envelope_kernel, "MIN_RECORDS", min_records)
        family = PolynomialFamily(2)
        _envelope_geometry(normalize_inputs(curves), family, op)
        stats.append(family.cache_stats())
    family = PolynomialFamily(2)
    _array(curves, family, op)
    stats.append(family.cache_stats())
    assert stats[1:] == stats[:-1], stats


@pytest.mark.usefixtures("tree_levels")
@pytest.mark.parametrize("array_first", [True, False])
def test_tolerance_equal_curves_share_one_family(array_first):
    # f and f + 1e-12 are `same` (and equal as cache keys): whichever
    # construction, the geometry or the array path, fills the shared
    # crossing cache first, both must read the same envelope out of it.
    rng = np.random.default_rng(7)
    base = [Polynomial(rng.uniform(-4, 4, 3)) for _ in range(12)]
    curves = []
    for f in base:
        curves += [f, f + Polynomial.constant(1e-12)]
    family = PolynomialFamily(2)
    for op in ("min", "max"):
        if array_first:
            want = _array(curves, family, op)
            got = envelope(mesh_machine(64), curves, family, op=op)
        else:
            got = envelope(mesh_machine(64), curves, family, op=op)
            want = _array(curves, family, op)
        assert _poly_key(got) == _poly_key(want), op
