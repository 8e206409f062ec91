"""Constructing the MIN (and MAX) function — Section 3 of the paper.

One host geometry computes every envelope: Lemma 3.1's ``op(F, G)``
(:func:`_combine_geometry`) inside Theorem 3.2's combine tree
(:func:`_envelope_geometry`, whose large tree levels run as one columnar
pass each in :mod:`repro.core._envelope_kernel`).  The pieces depend on
the curves alone; the entry points differ only in what they charge:

* :func:`envelope_serial` / :func:`combine_pairwise_serial` — the geometry
  alone, with no machine and no charges (the serial model of Atallah
  1985);
* :func:`envelope` / :func:`combine_pairwise` — the paper's parallel
  algorithm on a simulated :class:`~repro.machines.machine.Machine`: the
  same pieces, charged as the Section 2.6 data movement operations would
  run them, so that the simulated parallel time exhibits the Theta-bounds
  of Lemma 3.1 and Theorem 3.2 (``Theta(sqrt(m))`` per combine on the
  mesh, ``Theta(log m)`` on the hypercube; ``Theta(lambda^{1/2})`` /
  ``Theta(log^2 n)`` overall).  On a
  :class:`~repro.machines.machine.MachineGroup`, :func:`envelope` costs
  one combine tree on every member.

The reference array path (``set_fast_combine(False)``) runs Lemma 3.1
literally, over power-of-two strings of record slots through the data
movement operations themselves.  It is the oracle the geometry's pieces
and the replayed charges are checked against.

Every entry point supports *partial* functions (pieces with gaps) as
required by Lemma 3.3 / Theorem 3.4 and ``op`` in {"min", "max"}, and the
same machinery computes arithmetic combinations (sum/difference/product
pieces, needed by Theorems 4.5–4.7) — the paper notes the algorithm "can
be used to compute the result of applying any of a variety of
operations".

Implementation note on Lemma 3.1, Step 4.  The paper assigns intersection
work to PEs by cases (a piece of ``g`` handles interior overlaps, the PEs of
a piece of ``f`` handle the leftmost/rightmost ones).  We use the equivalent
*gap decomposition*: after merging all Left/Right records by endpoint, the
interval between consecutive records has a constant active piece of ``f``
and of ``g``; the PE holding the left record resolves that interval with at
most ``s`` root computations.  The total work, data movement, and output are
identical, and every interval is handled exactly once.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..errors import OperationContractError
from ..kinetics.piecewise import INF, Piece, PiecewiseFunction
from ..machines.machine import Machine, MachineGroup, charge_schedule
from ..machines.metrics import schedule_time
from ..machines.topology import (
    CCCTopology,
    HypercubeTopology,
    MeshTopology,
    PRAMTopology,
    SerialTopology,
    ShuffleExchangeTopology,
)
from ..ops import (
    bitonic_merge,
    fill_backward,
    fill_forward,
    pack,
    parallel_prefix,
    unpack_lists,
)
from ..ops._common import next_pow2
from ..trace.registry import get_counter
from ..trace.tracer import trace_span, tracing_enabled
from ._envelope_kernel import envelope_levels
from .family import CurveFamily

__all__ = [
    "envelope",
    "envelope_serial",
    "combine_pairwise",
    "combine_pairwise_serial",
    "threshold_indicator",
    "normalize_inputs",
]

#: Tolerance below which an interval is considered degenerate.
_EPS = 1e-9

_SELECT_OPS = ("min", "max")
_MAP_OPS = ("sum", "diff", "product")

#: Combines of envelope trees walked one by one (the levels below the
#: columnar kernel's ``MIN_RECORDS``).
_WALKED = get_counter("envelope.combines_walked")


def _eps(t: float) -> float:
    return _EPS * max(1.0, abs(t) if math.isfinite(t) else 1.0)


def normalize_inputs(fns: Iterable, labels=None) -> list[PiecewiseFunction]:
    """Lift raw curves to single-piece total functions; pass through
    :class:`PiecewiseFunction` inputs (the partial functions of Lemma 3.3)."""
    out = []
    fns = list(fns)
    if labels is None:
        labels = range(len(fns))
    for f, lab in zip(fns, labels):
        if isinstance(f, PiecewiseFunction):
            out.append(f)
        else:
            out.append(PiecewiseFunction.total(f, label=lab))
    return out


def _check_op(op: str) -> None:
    if op not in _SELECT_OPS and op not in _MAP_OPS:
        raise OperationContractError(
            f"op must be one of {_SELECT_OPS + _MAP_OPS}, got {op!r}"
        )


# ======================================================================
# Serial entry points: the geometry alone, no machine
# ======================================================================
def combine_pairwise_serial(F: PiecewiseFunction, G: PiecewiseFunction,
                            family: CurveFamily, op: str = "min") -> PiecewiseFunction:
    """``op(F, G)`` with gap (partial-domain) support, charged nowhere.

    For selection ops the result follows the smaller/larger defined curve;
    for arithmetic ops the result is defined on the common domain only
    (differences of members of a family, Lemma 2.5/2.6).
    """
    _check_op(op)
    return _combine_geometry(F, G, family, op)[0]


def envelope_serial(fns: Sequence, family: CurveFamily, *, op: str = "min",
                    labels=None) -> PiecewiseFunction:
    """Divide-and-conquer envelope of ``n`` (possibly partial) curves:
    :func:`envelope`'s pieces, charged nowhere."""
    level = normalize_inputs(fns, labels)
    if not level:
        return PiecewiseFunction.empty()
    return _envelope_geometry(level, family, op)[0]


# ======================================================================
# Machine implementation (Lemma 3.1 / Theorem 3.2)
# ======================================================================
def _records_of(F: PiecewiseFunction, half: int):
    """Left/Right records of Lemma 3.1 Step 1, padded to ``half`` slots.

    Records are emitted interleaved L0 R0 L1 R1 ..., which is sorted by
    (endpoint, tie) because pieces are ordered; ties sort Right before Left
    (the tie-break rule of Step 2).
    """
    end = np.full(half, INF)
    tie = np.full(half, 2, dtype=np.int64)
    kind = np.full(half, -1, dtype=np.int64)
    piece = np.full(half, None, dtype=object)
    for i, p in enumerate(F.pieces):
        end[2 * i], tie[2 * i], kind[2 * i], piece[2 * i] = p.lo, 1, 0, p
        end[2 * i + 1], tie[2 * i + 1], kind[2 * i + 1], piece[2 * i + 1] = (
            p.hi, 0, 1, p
        )
    return end, tie, kind, piece


#: When True (default) combine_pairwise computes the data transformations
#: host-side over the real records only (:func:`_combine_geometry`), then
#: replays the exact simulated charge sequence of the array machinery
#: (:func:`_combine_charges`).  Outputs and metrics are identical either
#: way (tests assert this); the flag exists so tests and debugging can
#: force the reference array path.
_FAST_COMBINE = True


def set_fast_combine(enabled: bool) -> bool:
    """Toggle the host-side fast combine path; returns the previous value."""
    global _FAST_COMBINE
    prev = _FAST_COMBINE
    _FAST_COMBINE = bool(enabled)
    return prev


def _empty_operand(F: PiecewiseFunction, G: PiecewiseFunction,
                   select: bool) -> PiecewiseFunction | None:
    """``op(F, G)`` when an operand has no pieces (no charges), else None."""
    if F.pieces and G.pieces:
        return None
    if not select:
        return PiecewiseFunction.empty()
    return PiecewiseFunction(list((F if F.pieces else G).pieces),
                             validate=False)


def combine_pairwise(machine: Machine, F: PiecewiseFunction,
                     G: PiecewiseFunction, family: CurveFamily,
                     op: str = "min") -> PiecewiseFunction:
    """Lemma 3.1 on the machine: ``op(F, G)`` in one merge + scans + packs.

    Cost profile: ``Theta(sqrt(m))`` on a mesh of ``Theta(m)`` PEs,
    ``Theta(log m)`` on a hypercube, where ``m`` is the total piece count.
    ``op`` may be a selection ("min"/"max", following the lower/upper
    envelope) or an arithmetic map ("sum"/"diff"/"product", defined on the
    common domain).
    """
    _check_op(op)
    if not _FAST_COMBINE:
        return _combine_pairwise_array(machine, F, G, family, op)
    with machine.metrics.host_time("cross"):
        out, shape = _combine_geometry(F, G, family, op)
    if shape is not None:
        machine.replay(_combine_charges, family.s, *shape)
    return out


def _combine_pairwise_array(machine: Machine, F: PiecewiseFunction,
                            G: PiecewiseFunction, family: CurveFamily,
                            op: str) -> PiecewiseFunction:
    """The reference array implementation of Lemma 3.1 (the oracle)."""
    select = op in _SELECT_OPS
    out = _empty_operand(F, G, select)
    if out is not None:
        return out
    half = next_pow2(2 * max(len(F.pieces), len(G.pieces)))
    L = 2 * half

    # Step 1: record creation (local) and layout (monotone route).
    endF, tieF, kindF, pieceF = _records_of(F, half)
    endG, tieG, kindG, pieceG = _records_of(G, half)
    end = np.concatenate([endF, endG])
    tie = np.concatenate([tieF, tieG])
    kind = np.concatenate([kindF, kindG])
    piece = np.concatenate([pieceF, pieceG])
    src = np.concatenate([np.zeros(half, np.int64), np.ones(half, np.int64)])
    machine.local(L)
    machine.monotone_route(L)

    # Step 2: merge the two sorted record runs by (endpoint, tie).
    with machine.phase("merge"):
        (end, tie), (kind, piece, src) = bitonic_merge(
            machine, [end, tie], [kind, piece, src]
        )

    # Step 3: every record learns the active piece of f and of g on the gap
    # that follows it (fill = the paper's prefix/broadcast within strings).
    with machine.phase("scan"):
        state_f = np.where((src == 0) & (kind == 0), piece, None)
        state_g = np.where((src == 1) & (kind == 0), piece, None)
        defined_f = (src == 0) & (kind >= 0)
        defined_g = (src == 1) & (kind >= 0)
        active_f = fill_forward(machine, state_f, defined_f)
        active_g = fill_forward(machine, state_g, defined_g)

    # Step 4: per-gap subpiece construction (at most s+1 each, local).
    nxt = np.empty(L, dtype=float)
    nxt[:-1] = end[1:]
    nxt[-1] = INF
    machine.exchange(L, 0)
    same = (_prefetch_gap_pairs(zip(end, nxt, active_f, active_g), family)
            if select else None)
    with machine.phase("cross"):
        subs = np.empty(L, dtype=object)
        for i in range(L):
            subs[i] = _gap_subpieces(
                end[i], nxt[i], active_f[i], active_g[i], family, op, same
            )
        machine.local(L, count=family.s + 1)
    # Step 5 is implicit: roots come out of the solver sorted, so each PE's
    # subpieces are already ordered left to right.

    # Step 6: flatten, fuse equal-function neighbours, pack.
    with machine.phase("pack"):
        flat, total = unpack_lists(machine, subs)
    if total == 0:
        return PiecewiseFunction.empty()
    with machine.phase("fuse"):
        pieces = _fuse_on_machine(machine, flat, total, family)
    return PiecewiseFunction(pieces, validate=False)


def _gap_subpieces(lo, hi, pf, pg, family: CurveFamily, op: str,
                   same: dict | None):
    """Subpieces of op(f, g) on the gap [lo, hi] (Step 4 of Lemma 3.1).

    Returned as (lo, hi, fn, label) tuples, ordered left to right.
    ``same`` holds the ``family.same`` verdicts of
    :func:`_prefetch_gap_pairs` over the same gaps (selections only).
    """
    if not math.isfinite(lo) or hi - lo <= _eps(lo):
        return []
    select = op in _SELECT_OPS
    if pf is None and pg is None:
        return []
    if pf is None or pg is None:
        if not select:
            return []  # arithmetic maps live on the common domain only
        win = pf if pg is None else pg
        hi_c = min(hi, win.hi)
        lo_c = max(lo, win.lo)
        if hi_c - lo_c <= _eps(lo_c):
            return []
        return [(lo_c, hi_c, win.fn, win.label)]
    lo = max(lo, pf.lo, pg.lo)
    hi = min(hi, pf.hi, pg.hi)
    if hi - lo <= _eps(lo):
        return []
    if not select:
        return [(lo, hi, family.combine(pf.fn, pg.fn, op),
                 (pf.label, pg.label))]
    if same[id(pf.fn), id(pg.fn)]:
        return [(lo, hi, pf.fn, pf.label)]
    out = []
    for a, b, f_wins in family.split_gap(pf.fn, pg.fn, lo, hi, op):
        win = pf if f_wins else pg
        out.append((a, b, win.fn, win.label))
    return out


def _prefetch_gap_pairs(gaps, family: CurveFamily) -> dict:
    """Warm the crossing cache for the distinct curve pairs that Step 4
    queries, given the ``(lo, hi, pf, pg)`` gaps of one combine, and
    return the ``family.same`` verdicts :func:`_gap_subpieces` needs.

    ``same`` is asked once per distinct pair of curve objects of the
    nondegenerate two-sided gaps; the verdicts are keyed by the ids of
    the pair's curves (the curves outlive the combine).  The pairs Step 4
    queries are the ones that are not ``same`` (:func:`_gap_subpieces`
    answers a ``same`` pair without crossings), in first-gap order, as
    the columnar kernel collects them.  Collecting them up front lets the
    family resolve all of a combine's crossing queries in one batched
    dispatch instead of one eigensolve per gap.
    """
    same: dict = {}
    pairs = []
    for lo, hi, pf, pg in gaps:
        if pf is None or pg is None or not math.isfinite(lo) \
                or hi - lo <= _eps(lo):
            continue
        key = (id(pf.fn), id(pg.fn))
        if key not in same:
            same[key] = family.same(pf.fn, pg.fn)
            if not same[key]:
                pairs.append((pf.fn, pg.fn))
    pairs = dict.fromkeys(pairs)
    if pairs:
        family.prefetch_crossings(pairs)
    return same


def _combine_geometry(F: PiecewiseFunction, G: PiecewiseFunction,
                      family: CurveFamily, op: str):
    """The machine-free geometry step of Lemma 3.1: ``(op(F, G), shape)``.

    Walks only the real records in plain Python, where the array
    implementation iterates full power-of-two strings of slots.  The
    output is the array path's: any (endpoint, tie)-sorted merge order
    yields the same pieces, because tied records always come from
    different sources (F vs G) and the gap between them is degenerate.

    The pieces depend on the curves alone; the machine decides only the
    charges, and those are a function of ``shape = (L, half, P, max_per,
    empty)`` (see :func:`_combine_charges`).  ``shape`` is ``None`` when
    an operand is empty, which charges nothing.
    """
    select = op in _SELECT_OPS
    out = _empty_operand(F, G, select)
    if out is not None:
        return out, None
    half = next_pow2(2 * max(len(F.pieces), len(G.pieces)))
    L = 2 * half

    # Step 2: merge records by (endpoint, tie); Right (0) before Left (1).
    recs = []
    for src, fn in ((0, F), (1, G)):
        for p in fn.pieces:
            recs.append((p.lo, 1, p, src))
            recs.append((p.hi, 0, p, src))
    recs.sort(key=_rec_key)

    # Steps 3-4: the active pieces on each gap, tracked in one walk.  The
    # padding slots of the array layout all carry endpoint +inf and
    # produce no subpieces, so only the real records' gaps matter; the
    # gap after the last real record reaches the first padding endpoint,
    # i.e. +inf.
    n_rec = len(recs)
    gaps = []
    cur_f = cur_g = None
    for i in range(n_rec):
        end, tie, piece, src = recs[i]
        if src == 0:
            cur_f = piece if tie == 1 else None
        else:
            cur_g = piece if tie == 1 else None
        nxt = recs[i + 1][0] if i + 1 < n_rec else INF
        gaps.append((end, nxt, cur_f, cur_g))
    same = _prefetch_gap_pairs(gaps, family) if select else None
    subs = [_gap_subpieces(lo, hi, pf, pg, family, op, same)
            for lo, hi, pf, pg in gaps]

    # Step 6: flatten, fuse + pack.
    flat = [piece for sub in subs for piece in sub]
    total = len(flat)
    shape = (L, half, next_pow2(total), max(map(len, subs), default=0),
             total == 0)
    if total == 0:
        return PiecewiseFunction.empty(), shape
    return PiecewiseFunction(_fuse_host(flat, family), validate=False), shape


def _combine_charges(m: Machine, s: int, L: int, half: int, P: int,
                     max_per: int, empty: bool):
    """The charge sequence of one Lemma 3.1 combine, phase by phase.

    The single place it is written down: a generator for
    :meth:`Machine.replay`, yielding each phase label before that
    phase's charges (``None``: unattributed).  It issues exactly what
    the array path charges through ``bitonic_merge``, ``fill_forward``,
    ``unpack_lists``, ``parallel_prefix``, ``fill_backward`` and
    ``pack``; every charge depends only on the topology, ``s`` and the
    combine's ``shape`` (see :func:`_combine_geometry`).
    """
    m.local(L)                  # Step 1: record creation
    m.monotone_route(L)         # ... and layout
    yield "merge"               # Step 2: bitonic merge of the two runs
    m.long_shift(L, half)
    m.exchange_sweep(L, tuple(range(half.bit_length() - 1, -1, -1)))
    yield "scan"                # Step 3: two fill_forward sweeps
    m.doubling_sweep(L)
    m.doubling_sweep(L)
    yield None
    m.exchange(L, 0)            # Step 4: each record reads the next endpoint
    yield "cross"
    m.local(L, count=s + 1)     # ... and solves its gap
    yield "pack"                # Step 6: unpack_lists
    m.local(L)
    m.doubling_sweep(L)
    for _ in range(max_per):
        m.monotone_route(P)
    if empty:
        return
    yield "fuse"
    m.exchange(P, 0)            # start marks: neighbour comparison
    m.local(P)
    m.doubling_sweep(P)         # parallel_prefix over start marks
    m.exchange(P, 0)
    m.doubling_sweep(P)         # fill_backward of run ends
    m.doubling_sweep(P)         # pack: prefix of the start mask
    m.local(P)                  # pack: destination computation
    m.monotone_route(P)         # pack: the route itself


def _rec_key(rec):
    return (rec[0], rec[1])


def _fuse_host(flat: list, family: CurveFamily) -> list[Piece]:
    """Step 6 grouping, host-side: same output as :func:`_fuse_on_machine`.

    Adjacent subpieces fuse when there is no gap between them and they
    carry the same label and curve — the start-mark rule of the array
    implementation, applied sequentially.
    """
    pieces = []
    cur_lo = cur_hi = cur_fn = cur_label = None
    prev = None
    for lo, hi, fn, label in flat:
        if (
            prev is not None
            and lo - prev[1] <= _eps(lo)
            and prev[3] == label
            and family.same(prev[2], fn)
        ):
            cur_hi = hi
        else:
            if prev is not None:
                pieces.append(Piece(cur_lo, cur_hi, cur_fn, cur_label))
            cur_lo, cur_hi, cur_fn, cur_label = lo, hi, fn, label
        prev = (lo, hi, fn, label)
    if prev is not None:
        pieces.append(Piece(cur_lo, cur_hi, cur_fn, cur_label))
    return pieces


def _fuse_on_machine(machine: Machine, flat: np.ndarray, total: int,
                     family: CurveFamily) -> list[Piece]:
    """Step 6: fuse adjacent same-function subpieces with prefix machinery."""
    P = len(flat)
    valid = np.array([x is not None for x in flat])
    lo = np.array([x[0] if x is not None else INF for x in flat])
    hi = np.array([x[1] if x is not None else INF for x in flat])
    start = np.zeros(P, dtype=bool)
    for i in range(total):
        if i == 0 or flat[i - 1] is None:
            start[i] = True
        else:
            prev, cur = flat[i - 1], flat[i]
            gap = cur[0] - prev[1] > _eps(cur[0])
            start[i] = gap or prev[3] != cur[3] or not family.same(
                prev[2], cur[2]
            )
    machine.exchange(P, 0)  # neighbour comparison
    machine.local(P)
    seg = parallel_prefix(machine, start.astype(np.int64), np.add)
    is_last = np.zeros(P, dtype=bool)
    is_last[:-1] = valid[:-1] & (start[1:] | ~valid[1:])
    is_last[-1] = valid[-1]
    machine.exchange(P, 0)
    run_hi = fill_backward(machine, hi, is_last, segments=seg)
    (plo, phi, pobj), count = pack(machine, start, [lo, run_hi, flat])
    pieces = []
    for i in range(count):
        t = pobj[i]
        pieces.append(Piece(plo[i], phi[i], t[2], t[3]))
    return pieces


def envelope(machine: Machine | MachineGroup, fns: Sequence,
             family: CurveFamily, *, op: str = "min",
             labels=None) -> PiecewiseFunction:
    """Theorem 3.2 / 3.4: the envelope of ``n`` curves on the machine.

    Functions are split evenly, halves recurse (running on disjoint strings
    of the machine *simultaneously*), and halves combine via Lemma 3.1.
    Because sibling merges are simultaneous, a level's parallel time is the
    maximum over siblings; the recursion therefore satisfies
    ``T(n) = T(n/2) + Theta(combine)``, giving ``Theta(lambda^{1/2}(n,s))``
    on the mesh and ``Theta(log^2 n)`` on the hypercube.

    Partial functions (:class:`PiecewiseFunction` inputs with gaps) are
    accepted, implementing Theorem 3.4.  The result's pieces are ordered by
    their intervals, as the paper requires.

    The envelope's pieces depend on the curves alone; a machine decides
    only the charges.  So the combine tree is built once, recording each
    combine's shape, and the machine (every member of a
    :class:`~repro.machines.machine.MachineGroup`) is then charged level
    by level, as the theorem counts: each level adds the slowest
    sibling's memoised combine schedule (:func:`_charge_tree`).  Under a
    tracer each combine is replayed on its own sub-machine instead, so its
    phase spans open.  Each member's metrics (and, under a tracer, its
    ``envelope`` span tree) equal a solo run's.  Host time of the shared
    geometry is attributed to the first member, under ``cross``.

    With the fast combine off (``set_fast_combine(False)``) every member
    runs every combine through the reference array path instead.
    """
    level = normalize_inputs(fns, labels)
    if not level:
        return PiecewiseFunction.empty()
    (built,) = _build_envelopes(machine, [(level, op)], family)
    return _charge_envelope(machine, level, family, op, built)


def _build_envelopes(machine: Machine | MachineGroup | None, trees: list,
                     family: CurveFamily) -> list:
    """The geometry of several independent envelopes of one family,
    ``(functions, op)`` each, built together (:func:`_forest_geometry`)
    for :func:`_charge_envelope` to charge one by one.

    The host time goes to ``machine``'s first member, under ``cross``.
    On the reference array path (a machine, with the fast combine off)
    nothing is built: every entry is ``None``.
    """
    if machine is None:
        return _forest_geometry(trees, family)
    if not _FAST_COMBINE:
        return [None] * len(trees)
    lead = (machine.members[0] if isinstance(machine, MachineGroup)
            else machine)
    with lead.metrics.host_time("cross"):
        return _forest_geometry(trees, family)


def _charge_envelope(machine: Machine | MachineGroup | None,
                     level: list[PiecewiseFunction], family: CurveFamily,
                     op: str, built) -> PiecewiseFunction:
    """``envelope(machine, level, family, op=op)`` of a tree built by
    :func:`_build_envelopes`: its pieces, with exactly :func:`envelope`'s
    charges on every member (its ``envelope`` span, Step 1's route and
    the tree's levels), or none for ``machine=None``."""
    if not level:
        return PiecewiseFunction.empty()
    if machine is None:
        return built[0]
    machines = (machine.members if isinstance(machine, MachineGroup)
                else (machine,))
    if built is None:
        for member in machines:
            out = _envelope_array(member, level, family, op)
        return out
    out, tree = built
    charge_tree = _charge_tree_traced if tracing_enabled() else _charge_tree
    for member in machines:
        with trace_span("envelope", member.metrics, category="driver",
                        n=len(level), op=op):
            # Step 1 of Theorem 3.2: distribute the descriptions (a route).
            member.monotone_route(next_pow2(len(level)))
            charge_tree(member, tree, family.s)
    return out


def _charge_tree(machine: Machine, tree: list, s: int) -> None:
    """Charge the combine tree level by level: each level adds its
    slowest combine's memoised schedule (every combine's on the serial
    machine, which has no parallelism across siblings).  A level's equal
    ``(length, shape)`` combines are costed once.

    Each combine runs on a substring of ``machine`` (see
    :func:`_substring_machine`); its schedule is looked up under that
    sub-machine's signature, and a sub-machine is built only to record a
    missing one.  The metrics end up exactly as :func:`_absorb_parallel`
    of replayed sub-machines leaves them.
    """
    serial = isinstance(machine.topology, SerialTopology)
    metrics = machine.metrics
    sigs: dict[int, tuple] = {}  # sub-machine signature by combine length
    for combines in tree:
        worst, worst_time = None, -1.0
        if not serial:
            # Equal combines charge equal schedules: cost each distinct
            # one once, in first-occurrence order (the first slowest wins).
            combines = dict.fromkeys(combines)
        for length, shape in combines:
            if shape is None:
                schedule: tuple = ()
            else:
                sig = sigs.get(length)
                if sig is None:
                    sig = sigs[length] = _substring_sig(machine, length)
                schedule = charge_schedule(
                    sig, _combine_charges, (s, *shape),
                    lambda length=length: _substring_machine(machine, length))
            if serial:
                metrics.absorb_schedule(schedule)
                continue
            time = schedule_time(schedule)
            if time > worst_time:  # the first slowest, as max() picks
                worst, worst_time = schedule, time
        if worst is not None:
            metrics.absorb_schedule(worst)


def _charge_tree_traced(machine: Machine, tree: list, s: int) -> None:
    """:func:`_charge_tree` through real sub-machines, so each combine's
    ``merge``/``scan``/``cross``/``pack``/``fuse`` spans open under the
    installed tracer with that combine's own charges."""
    for combines in tree:
        branch_metrics = []
        for length, shape in combines:
            sub = _substring_machine(machine, length)
            if shape is not None:
                sub.replay(_combine_charges, s, *shape)
            branch_metrics.append(sub.metrics)
        _absorb_parallel(machine, branch_metrics)


def _envelope_geometry(level: list[PiecewiseFunction], family: CurveFamily,
                       op: str):
    """The Theorem 3.2 combine tree, machine-free: ``(envelope, tree)``
    (a forest of one, :func:`_forest_geometry`)."""
    return _forest_geometry([(level, op)], family)[0]


def _forest_geometry(trees: list, family: CurveFamily) -> list:
    """Several independent Theorem 3.2 combine trees of one family,
    machine-free: ``(envelope, tree)`` per ``(functions, op)`` tree.

    ``tree`` lists each level's combines as ``(sub-machine length,
    shape)`` pairs, in the order :func:`envelope` charges them
    (:func:`_charge_envelope`).  The large forest levels run as one
    columnar pass each, every tree's combines together
    (:func:`~repro.core._envelope_kernel.envelope_levels`); the small
    levels left are walked combine by combine (:func:`_combine_geometry`).
    Both give the same pieces and shapes.  A tree of no functions gives
    the empty function.
    """
    for level, op in trees:
        if len(level) > 1:
            _check_op(op)
    out = []
    for (level, tree), (_, op) in zip(envelope_levels(trees, family), trees):
        while len(level) > 1:
            nxt = []
            combines = []
            for i in range(0, len(level) - 1, 2):
                F, G = level[i], level[i + 1]
                piece, shape = _combine_geometry(F, G, family, op)
                nxt.append(piece)
                combines.append(
                    (4 * max(1, len(F.pieces), len(G.pieces)), shape))
            if len(level) % 2:
                nxt.append(level[-1])
            tree.append(combines)
            _WALKED.value += len(combines)
            level = nxt
        out.append((level[0] if level else PiecewiseFunction.empty(), tree))
    return out


def _envelope_array(machine: Machine, level: list[PiecewiseFunction],
                    family: CurveFamily, op: str) -> PiecewiseFunction:
    """Theorem 3.2 on one machine through the reference array combine."""
    with trace_span("envelope", machine.metrics, category="driver",
                    n=len(level), op=op):
        machine.monotone_route(next_pow2(len(level)))
        while len(level) > 1:
            nxt = []
            branch_metrics = []
            for i in range(0, len(level) - 1, 2):
                F, G = level[i], level[i + 1]
                sub = _substring_machine(
                    machine, 4 * max(1, len(F.pieces), len(G.pieces))
                )
                nxt.append(combine_pairwise(sub, F, G, family, op))
                branch_metrics.append(sub.metrics)
            if len(level) % 2:
                nxt.append(level[-1])
            _absorb_parallel(machine, branch_metrics)
            level = nxt
    return level[0]


def _substring_machine(machine: Machine, length: int) -> Machine:
    """A fresh machine modelling a consecutive substring of ``machine``.

    Proximity order (mesh) and Gray-code order (hypercube) make aligned
    substrings behave like smaller instances of the same topology — the
    recursive-decomposability property of Figure 2 / Section 2.3 — so a
    sibling merge is modelled by a sub-machine of the parent's kind.
    """
    kind, n_pe, scheme = _substring_sig(machine, length)
    if kind is SerialTopology:
        return Machine(SerialTopology())
    if kind is MeshTopology:
        return Machine(MeshTopology(n_pe, scheme))
    return Machine(kind(n_pe))


def _substring_sig(machine: Machine, length: int) -> tuple:
    """The signature (``Machine._sig``) of :func:`_substring_machine`'s
    result, derived without building it."""
    top = machine.topology
    size = min(machine.n_pe, next_pow2(length))
    if isinstance(top, MeshTopology):
        exp = (size.bit_length()) // 2  # next power of four >= size
        return (MeshTopology, max(4, 4**exp), top.scheme)
    if isinstance(top, (HypercubeTopology, CCCTopology,
                        ShuffleExchangeTopology)):
        return (type(top), max(2, size), None)
    if isinstance(top, PRAMTopology):
        return (PRAMTopology, max(1, size), None)
    return (SerialTopology, 1, None)


def _absorb_parallel(machine: Machine, branches) -> None:
    """Charge the parent with the slowest sibling of a parallel level.

    On the serial machine there is no parallelism across siblings, so the
    costs add instead.  Wall-clock is absorbed from *every* sibling either
    way: the host executed them serially regardless of the simulated
    parallelism.
    """
    if not branches:
        return
    if isinstance(machine.topology, SerialTopology):
        for b in branches:
            machine.metrics.absorb(b)
        return
    worst = max(branches, key=lambda b: b.time)
    machine.metrics.absorb(worst)
    for b in branches:
        if b is not worst:
            machine.metrics.absorb_wall(b)


# ======================================================================
# Threshold indicators (Sections 4 and 5)
# ======================================================================
def threshold_indicator(F: PiecewiseFunction, family: CurveFamily,
                        threshold: float, *, relation: str = "le",
                        machine: Machine | None = None) -> PiecewiseFunction:
    """Pieces of the indicator ``1{F(t) <= c}`` generated by {0, 1}.

    Lemma 2.6 bounds the output at ``s + 1`` pieces per input piece.  Used
    for ``A_0``/``B_0`` in Theorem 4.5 and ``W_i`` in Theorem 4.6.  The work
    is local per piece plus one fuse/pack pass; when ``machine`` is given
    those rounds are charged.
    """
    if relation not in ("le", "ge"):
        raise OperationContractError("relation must be 'le' or 'ge'")
    level = family.constant(threshold)
    out = []
    for p in F.pieces:
        if family.same(p.fn, level):
            roots = []
        else:
            roots = family.crossings(p.fn, level, p.lo, p.hi)
        cuts = [p.lo, *roots, p.hi]
        for a, b in zip(cuts, cuts[1:]):
            if b - a <= _eps(a):
                continue
            mid = a + 1.0 if math.isinf(b) else 0.5 * (a + b)
            v = family.value(p.fn, mid)
            sat = v <= threshold if relation == "le" else v >= threshold
            out.append(
                Piece(a, b, family.constant(1.0 if sat else 0.0), p.label)
            )
    if machine is not None:
        m = next_pow2(max(2, len(out)))
        machine.local(m, count=family.s + 1)
        machine.monotone_route(m)
    return PiecewiseFunction(out, validate=False).fused(
        lambda x, y: x.fn == y.fn
    )
