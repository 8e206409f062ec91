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

import json
import sys
from functools import cache

import numpy as np
import pytest

from repro.core.containment import containment_intervals
from repro.core.envelope import (
    _combine_pairwise_array,
    _envelope_array,
    _envelope_geometry,
    combine_pairwise,
    combine_pairwise_serial,
    envelope,
    envelope_serial,
    normalize_inputs,
    set_fast_combine,
)
from repro.core import _envelope_kernel as envelope_kernel
from repro.core import family as family_module
from repro.core.family import CurveFamily, PolynomialFamily
from repro.core.hull_membership import (
    AngleCurve,
    AngleFamily,
    all_hull_membership_intervals,
    angle_restrictions,
    hull_membership_intervals,
)
from repro.kinetics.piecewise import INF, Piece, PiecewiseFunction
from repro.kinetics import polynomial as polynomial_module
from repro.kinetics.polynomial import Polynomial
from repro.machines.machine import (
    MachineGroup,
    hypercube_machine,
    mesh_machine,
    serial_machine,
)
from repro.trace.golden import structural_spans
from repro.trace.tracer import Tracer
from repro.verify.compare import sim_snapshot
from repro.verify.generators import (
    CURVE_KINDS,
    SYSTEM_KINDS,
    make_curves,
    make_system,
)

SIZES = (1, 2, 3, 5, 8, 33, 64, 257)

# repro.core re-exports the `envelope` function under the module's name.
envelope_module = sys.modules["repro.core.envelope"]
hull_membership_module = sys.modules["repro.core.hull_membership"]
containment_module = sys.modules["repro.core.containment"]


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


# ----------------------------------------------------------------------
# Forests: independent trees sharing one columnar pass per level
# ----------------------------------------------------------------------
def _forest_trees():
    """Trees of mixed sizes, generator kinds, partiality and ops, with a
    one-function tree and an empty one among them."""
    ops = ("min", "max", "sum", "min", "diff", "max")
    trees = []
    for i, (kind, n) in enumerate(zip(sorted(CURVE_KINDS),
                                      (1, 5, 33, 8, 64, 2))):
        curves = make_curves(kind, 40 + i, n, 1 + i % 2)
        trees.append((normalize_inputs(_partial(curves, i) if i % 2
                                       else curves), ops[i]))
    trees.insert(2, ([], "min"))
    trees.append((normalize_inputs(make_curves("random", 9, 257, 2)), "max"))
    return trees


@pytest.mark.usefixtures("tree_levels")
def test_forest_trees_match_per_tree_runs_and_the_array_path():
    trees = _forest_trees()
    got = envelope_module._forest_geometry(trees, PolynomialFamily(2))
    assert len(got) == len(trees)
    for (level, op), (env, tree) in zip(trees, got):
        want_env, want_tree = envelope_module._forest_geometry(
            [(level, op)], PolynomialFamily(2))[0]
        assert _poly_key(env) == _poly_key(want_env), (len(level), op)
        assert tree == want_tree, (len(level), op)
        if level:
            want = _array(level, PolynomialFamily(2), op)
            assert _poly_key(env) == _poly_key(want), (len(level), op)
        else:
            assert not env.pieces and tree == []


def test_forest_levels_are_tested_against_the_whole_forest():
    # Eight 12-curve trees: no tree alone reaches MIN_RECORDS, the forest
    # does, so its first levels run as columnar passes.
    trees = [(normalize_inputs(make_curves("random", seed, 12, 2)), "min")
             for seed in range(8)]
    assert 2 * 12 < envelope_kernel.MIN_RECORDS <= 2 * 12 * 8
    levels = envelope_kernel._LEVELS.value
    walked = envelope_module._WALKED.value
    got = envelope_module._forest_geometry(trees, PolynomialFamily(2))
    assert envelope_kernel._LEVELS.value > levels
    forest_walked = envelope_module._WALKED.value - walked
    for (level, op), (env, tree) in zip(trees, got):
        want_env, want_tree = envelope_module._forest_geometry(
            [(level, op)], PolynomialFamily(2))[0]
        assert _poly_key(env) == _poly_key(want_env)
        assert tree == want_tree
    # Run alone, every tree walks all 11 of its combines.
    alone_walked = envelope_module._WALKED.value - walked - forest_walked
    assert alone_walked == 8 * 11 > forest_walked


# ----------------------------------------------------------------------
# The batched angle hook and the vectorised ``same``
# ----------------------------------------------------------------------
def _angle(dx, dy, j):
    return AngleCurve(Polynomial(dx), Polynomial(dy), j)


def _edge_curves():
    """Angle curve pairs (f, g) at the hook's edges: a double root of the
    cross polynomial, a root where the dot product vanishes, pairs
    parallel for all time (both orientations), and pairs of generated
    systems."""
    pairs = [
        # cross = (t - 2)^2: a double root, dot > 0 there.
        (_angle([1.0], [-2.0, 1.0], 0), _angle([1.0], [2.0, -3.0, 1.0], 1)),
        # cross = (t - 3)^2 and dot = 0 at t = 3: the vectors vanish.
        (_angle([-3.0, 1.0], [-6.0, 2.0], 2),
         _angle([1.0], [-1.0, 1.0], 3)),
        # Parallel for all time: same and opposite orientation.
        (_angle([1.0, 1.0], [2.0, 0.5], 4), _angle([2.0, 2.0], [4.0, 1.0], 5)),
        (_angle([1.0, 1.0], [2.0, 0.5], 6),
         _angle([-1.0, -1.0], [-2.0, -0.5], 7)),
        # Two simple crossings 1e-8 apart.
        (_angle([1.0], [0.0, 1.0], 8),
         _angle([1.0], [5.0 * (5.0 + 1e-8), -(9.0 + 1e-8), 1.0], 9)),
    ]
    for kind in sorted(SYSTEM_KINDS):
        system = make_system(kind, 3, 8, 2)
        gs, bs = angle_restrictions(system, 0)
        curves = [F.pieces[0].fn for F in gs + bs if F.pieces]
        pairs += list(zip(curves[0::2], curves[1::2]))
    return pairs


def _angle_gaps(f, g, rng):
    """Gaps ending on, or within the filters' tolerances of, the roots of
    the pair's cross polynomial, plus random and unbounded ones."""
    cross = f.dx * g.dy - g.dx * f.dy
    roots = [] if cross.is_zero() else cross.real_roots(0.0, 50.0)
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


@pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("op", ["min", "max"])
def test_batched_angle_gaps_match_per_gap_split(op, cache):
    # AngleFamily.resolve_gaps against the base hook (prefetch, then
    # split_gap per gap): same subpieces, same crossing-cache counters.
    rng = np.random.default_rng(11)
    fns, lo, hi, f, g = [], [], [], [], []
    for x, y in _edge_curves():
        fns += [x, y]
        for a, b in _angle_gaps(x, y, rng):
            lo.append(a)
            hi.append(b)
            f.append(len(fns) - 2)
            g.append(len(fns) - 1)
    cols = (np.array(lo), np.array(hi), np.array(f), np.array(g))
    fast, slow = AngleFamily(2), AngleFamily(2)
    fast.cache_enabled = slow.cache_enabled = cache
    got = fast.resolve_gaps(*cols, fns, op)
    want = CurveFamily.resolve_gaps(slow, *cols, fns, op)
    assert [c.tolist() for c in got] == [c.tolist() for c in want]
    assert fast.cache_stats() == slow.cache_stats()


def test_vectorised_same_matches_polynomial_equality():
    # PolynomialFamily.same_columns against PolynomialFamily.same, on
    # coefficients on both sides of |a - b| <= COEFF_EPS + 1e-9 |b| and
    # trimmed lengths that differ by a leading term near COEFF_EPS.
    eps = polynomial_module.COEFF_EPS
    fns = []
    for b in (0.0, 1.0, -3.5, 1e3, 1e-6):
        thr = eps + 1e-9 * abs(b)
        for t in (0.0, thr * (1 - 1e-6), thr, thr * (1 + 1e-6), 2 * thr):
            for a in (b + t, b - t, np.nextafter(b + t, np.inf),
                      np.nextafter(b - t, -np.inf)):
                fns.append(Polynomial([1.0, float(a), 2.0]))
                fns.append(Polynomial([float(a), 1.0]))
                fns.append(Polynomial([1.0, 2.0, float(a)]))
    fns += [Polynomial([0.0]), Polynomial([eps]), Polynomial([2 * eps])]
    family = PolynomialFamily(2)
    a, b = (x.ravel() for x in np.meshgrid(np.arange(len(fns)),
                                            np.arange(len(fns))))
    got = family.same_columns(fns)(a, b)
    want = [family.same(fns[x], fns[y]) for x, y in zip(a, b)]
    assert got.tolist() == want
    assert any(want) and not all(want)


# ----------------------------------------------------------------------
# Forest callers charge exactly as one envelope run per envelope
# ----------------------------------------------------------------------
# The reference builds and charges each envelope through its own
# ``envelope`` call, where it is charged.
def _unbuilt(machine, trees, family):
    return [None] * len(trees)


def _one_envelope(machine, level, family, op, built):
    """The tree's own ``envelope`` call, geometry and charges together."""
    if machine is None:
        return envelope_serial(level, family, op=op)
    return envelope(machine, level, family, op=op)


def _forest_callers():
    system = make_system("random", 5, 9, 1)
    box = [3.0, 4.0]
    return {
        "hull_membership": lambda m: hull_membership_intervals(m, system, 2),
        "all_hull_membership": lambda m: all_hull_membership_intervals(
            m, system),
        "containment": lambda m: containment_intervals(m, system, box),
    }


def _snapshots(run, per_envelope, group, monkeypatch):
    with monkeypatch.context() as m:
        if per_envelope:
            for module in (hull_membership_module, containment_module):
                m.setattr(module, "_build_envelopes", _unbuilt)
                m.setattr(module, "_charge_envelope", _one_envelope)
        machines = [mesh_machine(256), hypercube_machine(256)]
        targets = list(machines)
        if group:
            members = [mesh_machine(256), hypercube_machine(256)]
            machines += members
            targets.append(MachineGroup(members))
        out, forest = [], []
        for target in targets:
            with Tracer("t") as tracer:
                out.append(run(target))
            forest.append(structural_spans(tracer.to_dicts()))
        snaps = [json.dumps(sim_snapshot(m.metrics)) for m in machines]
        return out, snaps, forest


@pytest.mark.usefixtures("tree_levels")
@pytest.mark.parametrize("caller", sorted(_forest_callers()))
def test_forest_callers_charge_as_per_envelope_runs(caller, monkeypatch):
    # A MachineGroup runs each member's charges (all_hull_membership
    # builds machines of one topology, so it refuses a group).
    run = _forest_callers()[caller]
    group = caller != "all_hull_membership"
    got = _snapshots(run, False, group, monkeypatch)
    want = _snapshots(run, True, group, monkeypatch)
    assert got[0] == want[0]        # the answers
    assert got[1] == want[1]        # sim_snapshot, phase key order included
    assert got[2] == want[2]        # the traced span forest, in order
    assert "envelope" in json.dumps(got[2])
