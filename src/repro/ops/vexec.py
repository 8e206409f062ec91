"""Vectorized plan executor: lowered key columns, whole-array rounds.

Cached :class:`~repro.ops.plans.MovementPlan` schedules already replace
per-call index arithmetic, but replaying them over the *original* key
arrays still evaluates the comparator over python objects every round.
For the object-dtype keys the geometry layers use — python-float
coordinates (``closest_pair``, ``convex_hull``), tuple ranks,
arbitrary-precision ints — that comparator is a per-element python loop
inside ``np.greater``, and it dominates sort-heavy workloads at scale.

This module is the fast path of the ``"vectorized"`` executor
(:func:`repro.ops.plans.execute_plan` tries it first):

* **key lowering** — once per operation, each key array is mapped to one
  or more *numeric comparison columns* (:func:`lower_keys`): native
  bool/int/float arrays pass through, object arrays of python numbers
  become ``int64``/``float64`` columns, uniform numeric tuples become
  one column per position (tuple comparison *is* column-lexicographic),
  and polynomial keys ordered at infinity (``SteadyValue``, through the
  ``key_coefficients``/``key_tolerance`` protocol, so this module never
  imports the steady-state code) become one column per degree, highest
  first, when no column holds two unequal values within the tolerance.
  Lowering is exact by construction — a value that cannot be represented
  with identical comparison semantics (huge ints, ``Fraction``,
  tolerance-close coefficients, mixed types) refuses to lower, and
  a NaN key raises :class:`~repro.errors.OperationContractError`.
* **network collapse** — a bitonic *sort* plan sorts every aligned
  segment for any input (0-1 principle), and a *merge* plan does once
  its sorted-halves premise holds; when the lowered keys carry no
  lexicographic ties, that arrangement is unique, so the whole replay
  collapses to one segment-wise ``argsort``/``lexsort``
  (:func:`_network_permutation`).  Ties or a violated premise fall back
  to the exact per-round replay: whole-array gathers over the
  precompiled ``src_lo``/``src_hi`` indices through a slot permutation,
  one numeric comparison per round, and an index-arithmetic writeback
  (two half-length scatters).  Either way the original key and payload
  arrays (often object-dtype) are touched exactly once, at the end.
* **explicit fallback** — when lowering refuses, the caller replays the
  plan over the original keys for that operation.  The fallback
  increments the ``vexec.fallbacks`` counter in the shared
  :mod:`repro.trace.registry` (lowered operations count under
  ``vexec.lowered``), so a workload silently running the slow path is
  visible in every ``--verbose`` table and trace export.

**Simulated time never moves.**  The executor performs the same pair
schedule as the object-key replay and charges the identical fused vectors:
``machine.exchange_sweep(length, plan.bits)`` per plan,
``machine.long_shift`` for the merge pre-permutation, and
``machine.doubling_sweep`` for the butterfly — bit-identical to the
replay and to the reference executor (see ``docs/cost_model.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import OperationContractError
from ..trace.registry import get_counter
from ._common import lex_gt

if TYPE_CHECKING:
    from ..machines.machine import Machine
    from .plans import MovementPlan

__all__ = [
    "execute_plan_vectorized", "butterfly_vectorized",
    "lower_keys", "vexec_stats",
]

#: Operations executed over lowered columns / refused by the lowering
#: layer, in the shared registry so campaigns and benches can see which
#: path every workload took.
_STAT_LOWERED = get_counter("vexec.lowered")
_STAT_FALLBACKS = get_counter("vexec.fallbacks")

#: Scalar types the lowering layer accepts inside object arrays.
_NUMERIC_SCALARS = (bool, int, float, np.bool_, np.integer, np.floating)

#: Dtype kinds whose arrays compare correctly column-wise as-is
#: (bool, signed/unsigned int, float, unicode/byte strings).
_NATIVE_KINDS = "biufUS"

#: Butterfly combiners with a lowered equivalent: min/max run as index
#: selections (the result is one of the original objects), add reruns the
#: sum over the lowered column and reboxes.
_SELECT_OPS = (np.minimum, np.maximum)


def vexec_stats() -> dict:
    """Process-wide lowering counters (also in ``registry_snapshot()``)."""
    return {"lowered": _STAT_LOWERED.value,
            "fallbacks": _STAT_FALLBACKS.value}


# ----------------------------------------------------------------------
# Key lowering.  These helpers are the *boundary* between python objects
# and numeric columns: the one place in this module allowed to walk
# elements (once per operation) — RPR006 exempts ``_lower*``/``_rebox*``
# functions and holds the executors below to whole-array code.
# ----------------------------------------------------------------------
def _lower_scalars(values: Sequence,
                   obj: np.ndarray | None = None,
                   kinds: set[type] | None = None) -> list[np.ndarray] | None:
    """Python numbers -> one exact ``int64`` or ``float64`` column.

    The per-element work is a single C-level pass building the set of
    element *types* (reused via ``kinds`` when the caller already has
    it); conversion and the exact-representability check run as
    whole-array numpy operations (``astype`` raises ``OverflowError`` on
    an int outside its target range, and comparing the float column back
    against the objects uses python's exact cross-type ``==``).
    """
    if kinds is None:
        kinds = set(map(type, values))
    if not all(issubclass(t, _NUMERIC_SCALARS) for t in kinds):
        return None
    if obj is None:
        obj = np.empty(len(values), dtype=object)
        obj[:] = values
    if all(issubclass(t, (bool, np.bool_, int, np.integer)) for t in kinds):
        try:
            return [obj.astype(np.int64)]
        except OverflowError:
            return None  # arbitrary-precision ints: int64 would wrap
    try:
        col = obj.astype(np.float64)
    except OverflowError:
        return None  # an int too large for float64
    if np.isnan(col).any():
        raise OperationContractError("keys must not contain NaN")
    if not bool(np.asarray(obj == col, dtype=bool).all()):
        return None  # a value float64 cannot represent exactly
    return [col]


def _lower_coefficient_keys(values: list) -> list[np.ndarray] | None:
    """Polynomial keys ordered at infinity -> one column per degree.

    ``values`` share one type implementing the coefficient-key protocol
    (``SteadyValue``): ``key_coefficients()`` is the ascending coefficient
    list, and the order is a top-down scan in which a coefficient
    difference within ``key_tolerance`` ties (Lemma 5.1).  The columns run
    from the highest degree down, zero-padded to the widest key.  Exact
    lexicographic order over them equals the tolerant scan when, in every
    column, adjacent distinct sorted values differ by more than the
    tolerance in floating point — each scan step then sees a difference
    that is zero or past the tolerance, with the sign of the exact one
    (the padding too: ``0.0 - b`` and ``a - 0.0`` are exact).  Otherwise
    the keys refuse to lower.
    """
    tol = type(values[0]).key_tolerance
    coeffs = [v.key_coefficients() for v in values]
    width = max(map(len, coeffs))
    grid = np.array([[0.0] * (width - len(c)) + c[::-1] for c in coeffs],
                    dtype=np.float64)
    if not np.isfinite(grid).all():
        return None
    gaps = np.diff(np.sort(grid, axis=0), axis=0)
    if not ((gaps == 0.0) | (gaps > tol)).all():
        return None  # two unequal coefficients within the tolerance
    return list(np.ascontiguousarray(grid.T))


def _lower_object_column(arr: np.ndarray) -> list[np.ndarray] | None:
    """One object-dtype array -> numeric column(s), or None (not lowerable)."""
    values = arr.tolist()
    kinds = set(map(type, values))
    if all(issubclass(t, _NUMERIC_SCALARS) for t in kinds):
        return _lower_scalars(values, arr, kinds)
    if len(kinds) == 1 and hasattr(next(iter(kinds)), "key_coefficients"):
        return _lower_coefficient_keys(values)
    if not all(issubclass(t, tuple) for t in kinds):
        return None
    widths = set(map(len, values))
    if len(widths) != 1 or widths == {0}:
        return None
    cols: list[np.ndarray] = []
    for column in zip(*values):
        sub = _lower_scalars(column)
        if sub is None:
            return None
        cols.extend(sub)
    return cols


def lower_keys(keys: list[np.ndarray]) -> list[np.ndarray] | None:
    """Map key arrays to comparison columns; ``None`` when not lowerable.

    The returned columns compare lexicographically exactly like the input
    key list: native numeric/string arrays are copied through, an object
    array of python numbers becomes one exact column, and an object array
    of uniform-width numeric tuples becomes one column per position.
    """
    cols: list[np.ndarray] = []
    for k in keys:
        if k.dtype != object:
            if k.dtype.kind not in _NATIVE_KINDS:
                return None
            cols.append(np.array(k, copy=True))
            continue
        sub = _lower_object_column(k)
        if sub is None:
            return None
        cols.extend(sub)
    return cols


def _lower_select_keys(values: np.ndarray) -> list[np.ndarray] | None:
    """One object array -> its comparison column(s) (min/max butterfly)."""
    try:
        return _lower_object_column(values)
    except OperationContractError:
        return None  # NaN values: a reduction refuses, it does not raise


def _lower_single_column(values: np.ndarray) -> np.ndarray | None:
    """One object array -> exactly one numeric column (sum butterfly)."""
    cols = _lower_select_keys(values)
    if cols is None or len(cols) != 1:
        return None
    return cols[0]


def _rebox_column(col: np.ndarray) -> np.ndarray:
    """Lift a numeric column back to an object array of python scalars."""
    out = np.empty(len(col), dtype=object)
    out[:] = col.tolist()
    return out


# ----------------------------------------------------------------------
# Executors.  Everything below is whole-array: precompiled index gathers,
# vectorized comparators, fused writebacks — and the identical fused
# charges the object-key replay and the reference executor pay.
# ----------------------------------------------------------------------
def _halves_nondecreasing(grids: list[np.ndarray], lo: int,
                          hi: int) -> bool:
    """Lexicographic non-decrease along columns ``[lo, hi)`` of each row."""
    a = [g[:, lo:hi - 1] for g in grids]
    b = [g[:, lo + 1:hi] for g in grids]
    gt = np.zeros(a[0].shape, dtype=bool)
    eq = np.ones(a[0].shape, dtype=bool)
    for x, y in zip(a, b):
        gt |= eq & (x > y)
        eq &= x == y
    return not bool(gt.any())


def _network_permutation(plan: MovementPlan,
                         cols: list[np.ndarray]) -> np.ndarray | None:
    """The network's final arrangement, computed without replaying rounds.

    A bitonic *sort* schedule sorts every aligned segment for **any**
    input (the 0-1 principle), and a bitonic *merge* schedule does so
    whenever each segment half is sorted ascending — the op's documented
    premise, verified here on the lowered columns.  If additionally the
    segment keys are strictly ordered (no lexicographic ties), that
    sorted arrangement is *unique*: the output no longer depends on the
    round structure at all, and the whole replay collapses to one
    segment-wise argsort.  Ties, a violated merge premise, or a plan that
    is not a comparator network return ``None`` — the caller replays the
    rounds instead, which is always exact.
    """
    if plan.key[0] not in ("sort", "merge"):
        return None
    _, length, seg, ascending = plan.key
    nseg = length // seg
    grids = [c.reshape(nseg, seg) for c in cols]
    if plan.key[0] == "merge":
        half = seg // 2
        if not (_halves_nondecreasing(grids, 0, half)
                and _halves_nondecreasing(grids, half, seg)):
            return None
    if len(cols) == 1:
        # Stable kind is timsort: linear on the merge path's sorted runs.
        perm2d = np.argsort(grids[0], axis=1, kind="stable")
        perm2d += np.arange(nseg, dtype=perm2d.dtype)[:, None] * seg
    elif nseg == 1:
        perm2d = np.lexsort(tuple(reversed(cols))).reshape(1, seg)
    else:
        seg_ids = np.arange(length, dtype=np.intp) // seg
        perm2d = np.lexsort((*reversed(cols), seg_ids)).reshape(nseg, seg)
    eq = np.ones((nseg, seg - 1), dtype=bool)
    for c in cols:
        sc = c[perm2d]
        eq &= sc[:, :-1] == sc[:, 1:]
        if not eq.any():
            break
    if eq.any():
        return None  # tied keys: the arrangement depends on the rounds
    if not ascending:
        perm2d = perm2d[:, ::-1]
    return np.ascontiguousarray(perm2d.ravel()).astype(np.intp, copy=False)


def execute_plan_vectorized(
    machine: Machine,
    plan: MovementPlan,
    keys: list[np.ndarray],
    payloads: list[np.ndarray],
) -> bool:
    """Replay a compiled plan over lowered columns; False means fall back.

    On success, ``keys`` and ``payloads`` are permuted in place to exactly
    the arrangement the object-key replay in
    :func:`repro.ops.plans.execute_plan` produces, and the machine is
    charged exactly the plan's fused vectors.  On a lowering refusal
    nothing is mutated or charged: the caller must replay the plan
    instead (the refusal is counted, never silent).
    """
    cols = lower_keys(keys)
    if cols is None:
        _STAT_FALLBACKS.value += 1
        return False
    _STAT_LOWERED.value += 1
    length = len(keys[0])
    if plan.pre_permutation is not None:
        machine.long_shift(length, plan.shift_span)
    perm = _network_permutation(plan, cols)
    if perm is None:
        perm = _replay_rounds(plan, cols, length)
    if plan.bits:
        machine.exchange_sweep(length, plan.bits)
    for arr in (*keys, *payloads):
        arr[:] = arr[perm]
    return True


def _replay_rounds(plan: MovementPlan, cols: list[np.ndarray],
                   length: int) -> np.ndarray:
    """Exact per-round replay over the lowered columns (the general path)."""
    perm = np.arange(length, dtype=np.intp)
    if plan.pre_permutation is not None:
        perm = perm[plan.pre_permutation]
    half = length // 2
    pslo = np.empty(half, dtype=np.intp)
    pshi = np.empty(half, dtype=np.intp)
    delta = np.empty(half, dtype=np.intp)
    single = cols[0] if len(cols) == 1 else None
    for rnd in plan.rounds:
        # ``perm`` composes the rounds so far: slot i currently holds
        # original element perm[i].  Gather the round's pair indices
        # through it instead of carrying permuted column copies.
        np.take(perm, rnd.src_lo, out=pslo)
        np.take(perm, rnd.src_hi, out=pshi)
        if single is not None:
            swap = np.asarray(single[pslo] > single[pshi], dtype=bool)
        else:
            swap = lex_gt([c[pslo] for c in cols], [c[pshi] for c in cols])
        if not swap.any():
            continue
        # Fused writeback, two half-length scatters: orientation fusion
        # guarantees the round leaves the pair minimum at ``src_lo`` and
        # the maximum at ``src_hi`` (see ``plans._compile_round``), so
        # the swap selects between the gathered indices — written as
        # index arithmetic, which beats a pair of ``np.where`` calls.
        np.subtract(pshi, pslo, out=delta)
        np.multiply(delta, swap, out=delta)
        np.add(pslo, delta, out=pslo)
        np.subtract(pshi, delta, out=pshi)
        perm[rnd.src_lo] = pslo
        perm[rnd.src_hi] = pshi
    return perm


def butterfly_vectorized(machine, values: np.ndarray, op,
                         partners: tuple) -> np.ndarray | None:
    """Semigroup butterfly over a lowered column; None means fall back.

    ``np.minimum``/``np.maximum`` run as index *selections* — the result
    slots hold the original objects, chosen by lexicographic comparison
    over the lowered column(s) with the same tie rule as the ufunc (ties
    keep the first operand).
    ``np.add`` reruns the reduction over the lowered column and reboxes;
    int columns are refused (python-int sums never wrap, ``int64`` sums
    could).  Charges one fused doubling sweep — identical to the
    per-round exchanges it replaces.
    """
    length = len(values)
    if op in _SELECT_OPS:
        cols = _lower_select_keys(values)
        if cols is None:
            _STAT_FALLBACKS.value += 1
            return None
        _STAT_LOWERED.value += 1
        idx = np.arange(length, dtype=np.intp)
        for partner in partners:
            pv = [c[partner] for c in cols]
            pick = lex_gt(cols, pv) if op is np.minimum else lex_gt(pv, cols)
            cols = [np.where(pick, p, c) for p, c in zip(pv, cols)]
            idx = np.where(pick, idx[partner], idx)
        machine.doubling_sweep(length)
        return values[idx]
    if op is np.add:
        col = _lower_single_column(values)
        if col is None or col.dtype.kind != "f":
            _STAT_FALLBACKS.value += 1
            return None
        _STAT_LOWERED.value += 1
        for partner in partners:
            col = col + col[partner]
        machine.doubling_sweep(length)
        return _rebox_column(col)
    _STAT_FALLBACKS.value += 1
    return None
