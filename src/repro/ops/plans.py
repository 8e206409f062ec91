"""Compiled data-movement plans (the plan compiler).

Every deterministic network in :mod:`repro.ops` — bitonic sorting and
merging, recursive-doubling scans — issues a round schedule that is a pure
function of ``(operation, length, segment_size, direction)``: which slots
pair up, which pairs order ascending, and which rank bit each round
exchanges at.  The interpreted executors rebuild those index arrays with
``np.arange``/mask arithmetic on *every call*, which the wall-clock phase
breakdown shows dominating sort-heavy workloads.

This module compiles each signature once into an immutable
:class:`MovementPlan` cached across machine instances (the same
cross-instance pattern as ``_CHARGE_CACHE`` in
:mod:`repro.machines.machine`):

* **pair schedule** — per round, the ``lower``/``upper`` slot indices of
  every compare-exchange pair;
* **orientation fusion** — per round, gather indices ``src_lo``/``src_hi``
  pre-oriented by the pair's direction, so execution evaluates the (often
  expensive, object-dtype) comparator **once** per pair instead of
  evaluating both ``a > b`` and ``b > a`` and selecting;
* **charge vector** — the tuple of rank bits the schedule exchanges at, in
  round order.  Execution charges it through
  :meth:`~repro.machines.machine.Machine.exchange_sweep`, which fuses
  consecutive legs (same-distance mesh bit pairs, intra-PE zero-distance
  rounds) into one aggregated charge.  All link distances in the cost
  model are integer-valued, so the aggregated totals are **bit-identical**
  to charging the interpreted rounds one by one — simulated time never
  moves between executors.

The cache is bounded (`_PLAN_CACHE_CAP`) and clearable through
:func:`clear_plan_cache` / :func:`repro.machines.clear_caches`.  Hit, miss
and compile-time counters feed the ``--verbose`` diagnostics next to the
crossing-cache numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter  # repro: noqa RPR001 -- compile-time is host-side bookkeeping (plan_compile_seconds), never a simulated charge
from typing import TYPE_CHECKING, Callable, TypeVar

import numpy as np

from ..trace.registry import get_counter, register_gauge
from . import vexec as _vexec
from ._common import lex_gt, reject_nan_keys

if TYPE_CHECKING:
    from ..machines.machine import Machine

__all__ = [
    "MovementPlan", "PlanRound", "EXECUTORS",
    "get_executor", "set_executor",
    "get_sort_plan", "get_merge_plan", "get_butterfly_partners",
    "execute_plan", "execute_butterfly",
    "plan_cache_stats", "reset_plan_stats", "clear_plan_cache",
]

#: The two executor strategies (the ``set_fast_combine`` pattern):
#:
#: * ``"reference"``  — the interpreted per-round executors: index arrays
#:   rebuilt with ``np.arange`` every call, comparators evaluated both
#:   ways, one charge per round.  The slowest path and the semantic
#:   oracle the other is verified against.
#: * ``"vectorized"`` — cached :class:`MovementPlan` schedules run by
#:   :func:`execute_plan` over numeric key columns lowered once per
#:   operation (:mod:`repro.ops.vexec`); when a key cannot be lowered,
#:   that operation replays the plan over the original (object) keys
#:   instead — counted in ``vexec.fallbacks``, never silent.
#:
#: Outputs and simulated charges are bit-identical for both — only host
#: wall-clock moves.
EXECUTORS = ("reference", "vectorized")

_EXECUTOR = "vectorized"

#: Compiled plans keyed by (op, length, segment_size, direction).
_PLAN_CACHE: dict = {}

#: Bound on distinct cached signatures.  A campaign touches a few dozen
#: signatures; the cap only matters for adversarial sweeps over many
#: lengths, where dropping the whole cache and recompiling is cheaper
#: than tracking recency per call.
_PLAN_CACHE_CAP = 256

#: Process-wide plan-cache counters, unified into the shared
#: :data:`repro.trace.registry.REGISTRY` so they appear in the same
#: ``--verbose`` table and trace exports as the crossing-cache numbers.
_STAT_HITS = get_counter("movement_plans.hits")
_STAT_MISSES = get_counter("movement_plans.misses")
_STAT_COMPILE = get_counter("movement_plans.compile_seconds", 0.0)
register_gauge("movement_plans.cache_size", lambda: len(_PLAN_CACHE))


def get_executor() -> str:
    """The active executor strategy (``"vectorized"`` by default)."""
    return _EXECUTOR


def set_executor(name: str) -> str:
    """Select the executor strategy; returns the previous name.

    Library code never reads ``REPRO_EXECUTOR`` itself (RPR002): CLI entry
    points parse the env var / flag once at the edge and call this.
    """
    global _EXECUTOR
    if name not in EXECUTORS:
        raise ValueError(
            f"unknown executor {name!r}; choose one of {EXECUTORS}")
    prev = _EXECUTOR
    _EXECUTOR = name
    return prev


def plan_cache_stats() -> dict:
    """Process-wide plan-cache counters: hits, misses, compile seconds."""
    total = _STAT_HITS.value + _STAT_MISSES.value
    return {
        "hits": _STAT_HITS.value,
        "misses": _STAT_MISSES.value,
        "compile_seconds": _STAT_COMPILE.value,
        "hit_rate": (_STAT_HITS.value / total) if total else 0.0,
        "size": len(_PLAN_CACHE),
    }


def reset_plan_stats() -> None:
    _STAT_HITS.reset()
    _STAT_MISSES.reset()
    _STAT_COMPILE.reset()


def clear_plan_cache() -> None:
    """Drop every compiled plan and reset the counters."""
    _PLAN_CACHE.clear()
    reset_plan_stats()


@dataclass(frozen=True)
class PlanRound:
    """One compiled compare-exchange round.

    ``lower``/``upper`` are the pair slot indices; ``src_lo``/``src_hi``
    are the same pairs with the roles pre-swapped for descending pairs, so
    ``swap = lex_gt(keys[src_lo], keys[src_hi])`` decides every pair with
    one comparator sweep.
    """

    bit: int
    lower: np.ndarray
    upper: np.ndarray
    src_lo: np.ndarray
    src_hi: np.ndarray


@dataclass(frozen=True)
class MovementPlan:
    """An immutable compiled round schedule for one movement signature.

    ``pre_permutation``/``shift_span`` describe the optional lockstep
    reversal that precedes a bitonic merge; ``bits`` is the charge vector
    (one rank bit per round, in round order).
    """

    key: tuple
    rounds: tuple[PlanRound, ...]
    bits: tuple[int, ...]
    pre_permutation: np.ndarray | None = None
    shift_span: int = 0


_Compiled = TypeVar("_Compiled")


def _index_dtype(length: int) -> type[np.signedinteger]:
    return np.int32 if length < (1 << 31) else np.int64


def _machine_note(machine: Machine, hit: bool, seconds: float) -> None:
    note = getattr(machine.metrics, "note_plan", None)
    if note is not None:
        note(hit, seconds)


def _lookup(machine: Machine, key: tuple,
            compile_fn: Callable[[], _Compiled]) -> _Compiled:
    """Fetch a cached plan, compiling (and counting) on a miss."""
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _STAT_HITS.value += 1
        _machine_note(machine, True, 0.0)
        return plan
    t0 = perf_counter()
    plan = compile_fn()
    dt = perf_counter() - t0
    _STAT_MISSES.value += 1
    _STAT_COMPILE.value += dt
    _machine_note(machine, False, dt)
    if len(_PLAN_CACHE) >= _PLAN_CACHE_CAP:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[key] = plan
    return plan


def _compile_round(idx: np.ndarray, j: int, up: np.ndarray,
                   dtype: type[np.signedinteger]) -> PlanRound:
    lower = idx[(idx & j) == 0].astype(dtype, copy=False)
    upper = (lower | j).astype(dtype, copy=False)
    up_low = up[lower]
    src_lo = np.where(up_low, lower, upper).astype(dtype, copy=False)
    src_hi = np.where(up_low, upper, lower).astype(dtype, copy=False)
    return PlanRound(j.bit_length() - 1, lower, upper, src_lo, src_hi)


def get_sort_plan(machine: Machine, length: int, segment_size: int,
                  ascending: bool) -> MovementPlan:
    """The full bitonic-sort schedule for ``(length, segment, direction)``."""
    key = ("sort", length, segment_size, ascending)
    return _lookup(machine, key,
                   lambda: _compile_sort(key, length, segment_size, ascending))


def _compile_sort(key: tuple, length: int, seg: int,
                  ascending: bool) -> MovementPlan:
    dtype = _index_dtype(length)
    idx = np.arange(length)
    rounds: list[PlanRound] = []
    bits: list[int] = []
    k = 2
    while k <= seg:
        if k == seg:
            up = np.full(length, ascending)
        else:
            up = ((idx & k) == 0) == ascending
        j = k >> 1
        while j >= 1:
            rnd = _compile_round(idx, j, up, dtype)
            rounds.append(rnd)
            bits.append(rnd.bit)
            j >>= 1
        k <<= 1
    return MovementPlan(key, tuple(rounds), tuple(bits))


def get_merge_plan(machine: Machine, length: int, segment_size: int,
                   ascending: bool) -> MovementPlan:
    """The bitonic-merge schedule: segment-half reversal + one merge stage."""
    key = ("merge", length, segment_size, ascending)
    return _lookup(machine, key,
                   lambda: _compile_merge(key, length, segment_size, ascending))


def _compile_merge(key: tuple, length: int, seg: int,
                   ascending: bool) -> MovementPlan:
    dtype = _index_dtype(length)
    idx = np.arange(length)
    half = seg // 2
    inseg = idx % seg
    rev = np.where(inseg >= half, idx - inseg + seg - 1 - (inseg - half), idx)
    up = np.full(length, ascending)
    rounds: list[PlanRound] = []
    bits: list[int] = []
    j = half
    while j >= 1:
        rnd = _compile_round(idx, j, up, dtype)
        rounds.append(rnd)
        bits.append(rnd.bit)
        j >>= 1
    return MovementPlan(key, tuple(rounds), tuple(bits),
                        pre_permutation=rev.astype(dtype, copy=False),
                        shift_span=half)


def get_butterfly_partners(machine: Machine,
                           length: int) -> tuple[np.ndarray, ...]:
    """Partner-index arrays (``i ^ 2^r`` per round) for butterfly reduction."""
    key = ("butterfly", length)
    return _lookup(machine, key, lambda: _compile_butterfly(length))


def _compile_butterfly(length: int) -> tuple[np.ndarray, ...]:
    dtype = _index_dtype(length)
    idx = np.arange(length)
    partners = []
    d = 1
    while d < length:
        partners.append((idx ^ d).astype(dtype, copy=False))
        d <<= 1
    return tuple(partners)


def execute_plan(
    machine: Machine,
    plan: MovementPlan,
    keys: list[np.ndarray],
    payloads: list[np.ndarray],
) -> None:
    """Run a compiled plan over ``keys``/``payloads`` in place.

    The plan runs over lowered key columns
    (:func:`repro.ops.vexec.execute_plan_vectorized`).  When lowering
    refuses (counted in ``vexec.fallbacks``), the rounds replay over the
    original keys instead: batched NumPy gathers/scatters over the
    precompiled, pre-oriented index arrays.  Either way the simulated
    time is charged once through the plan's fused charge vector —
    bit-identical to the interpreted per-round charges (see the module
    docstring).
    """
    if _vexec.execute_plan_vectorized(machine, plan, keys, payloads):
        return
    reject_nan_keys(keys)
    length = len(keys[0])
    arrays = (*keys, *payloads)
    if plan.pre_permutation is not None:
        rev = plan.pre_permutation
        for arr in arrays:
            arr[:] = arr[rev]
        machine.long_shift(length, plan.shift_span)
    for rnd in plan.rounds:
        a = [k[rnd.src_lo] for k in keys]
        b = [k[rnd.src_hi] for k in keys]
        swap = lex_gt(a, b)
        if swap.any():
            src = rnd.lower[swap]
            dst = rnd.upper[swap]
            for arr in arrays:
                tmp = arr[src].copy()
                arr[src] = arr[dst]
                arr[dst] = tmp
    if plan.bits:
        machine.exchange_sweep(length, plan.bits)


def execute_butterfly(
    machine: Machine,
    values: np.ndarray,
    op: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """All-reduce ``values`` under ``op`` over the compiled butterfly.

    Object arrays first try the lowered column
    (:func:`repro.ops.vexec.butterfly_vectorized`); other dtypes, and
    refusals, combine with ``op`` at each partner distance.  One fused
    doubling sweep is charged either way.
    """
    length = len(values)
    partners = get_butterfly_partners(machine, length)
    if values.dtype == object:
        out = _vexec.butterfly_vectorized(machine, values, op, partners)
        if out is not None:
            return out
    for partner in partners:
        values = op(values, values[partner])
    machine.doubling_sweep(length)
    return values
