"""Bitonic sorting and merging networks (Section 2.6: *Merging*, *Sorting*).

Batcher's bitonic network [Batcher 1968] expressed as lockstep
compare-exchange rounds at rank-bit distances.  The per-round cost comes
from the machine's topology:

* **hypercube**: every round costs 1, so a full sort is
  ``Theta(log^2 n)`` — the deterministic bound the paper quotes;
* **mesh** (shuffled-row-major / proximity ranks): a round at bit ``j``
  costs ``2^{j//2}``, and the stage sums telescope to ``Theta(sqrt(n))`` —
  the Thompson–Kung optimal mesh sort the paper cites.

Segmented operation (``segment_size``) sorts or merges every aligned block
independently, which is how the paper runs operations "within strings".
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from ..errors import OperationContractError
from ..machines.machine import Machine, MachineGroup
from ..trace.tracer import trace_span
from . import plans as _plans
from ._common import KeySpec, as_key_list, check_segment_size, lex_gt, reject_nan_keys

__all__ = ["bitonic_sort", "bitonic_merge", "compare_exchange_round"]


def _copy_arrays(arrays: Iterable[ArrayLike]) -> list[np.ndarray]:
    return [np.array(a, copy=True) for a in arrays]


def compare_exchange_round(
    machine: Machine,
    keys: list[np.ndarray],
    payloads: list[np.ndarray],
    j: int,
    up: np.ndarray,
) -> None:
    """One lockstep compare-exchange round pairing slot ``i`` with ``i ^ j``.

    ``up`` is a boolean array indexed by slot: pairs whose *lower* slot has
    ``up=True`` order ascending (minimum to the lower slot), others
    descending.  Mutates ``keys`` and ``payloads`` in place and charges one
    exchange round.
    """
    length = len(keys[0])
    idx = np.arange(length)
    lower = idx[(idx & j) == 0]
    upper = lower | j
    a = [k[lower] for k in keys]
    b = [k[upper] for k in keys]
    swap = np.where(up[lower], lex_gt(a, b), lex_gt(b, a))
    if swap.any():
        src = lower[swap]
        dst = upper[swap]
        for arr in (*keys, *payloads):
            tmp = arr[src].copy()
            arr[src] = arr[dst]
            arr[dst] = tmp
    machine.exchange(length, j.bit_length() - 1)


def bitonic_sort(
    machine: Machine | MachineGroup,
    keys: KeySpec,
    payloads: Sequence[ArrayLike] = (),
    *,
    ascending: bool = True,
    segment_size: int | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Sort ``keys`` (lexicographic across a key list) carrying ``payloads``.

    Returns ``(sorted_keys, sorted_payloads)`` as new arrays; inputs are not
    modified.  With ``segment_size`` every aligned block of that size is
    sorted independently (all blocks ascending when ``ascending``).

    On a machine constructed with ``randomized=True`` the sort instead
    charges the measured round count of a Valiant two-phase routed
    randomized sort (the Reif–Valiant expected-``Theta(log n)`` substrate
    of Table 1) — only the cost model changes.  The sorted keys are the
    same either way; payloads are too when no two keys tie (the bitonic
    network is not stable, the randomized substrate is).

    On a :class:`~repro.machines.machine.MachineGroup` with randomized
    members the data is sorted once — by the deterministic members'
    network if there are any, else by the first randomized member — and
    each randomized member is charged its own Valiant-routed rounds, in
    member order.
    """
    if segment_size is None:
        if isinstance(machine, MachineGroup):
            if any(m.randomized for m in machine.members):
                return _group_sort(machine, keys, payloads, ascending)
        elif getattr(machine, "randomized", False):
            with trace_span("randomized_sort", machine.metrics):
                return _randomized_sort(machine, keys, payloads, ascending)
    keys = _copy_arrays(as_key_list(keys))
    payloads = _copy_arrays([np.asarray(p) for p in payloads])
    length = len(keys[0])
    if any(len(p) != length for p in payloads):
        raise OperationContractError("payload arrays must match key length")
    seg = check_segment_size(length, segment_size)
    with trace_span("bitonic_sort", machine.metrics, n=length, segment=seg):
        if _plans.get_executor() == "vectorized":
            plan = _plans.get_sort_plan(machine, length, seg, bool(ascending))
            _plans.execute_plan(machine, plan, keys, payloads)
            return keys, payloads
        reject_nan_keys(keys)
        idx = np.arange(length)
        k = 2
        while k <= seg:
            if k == seg:
                up = np.full(length, ascending)
            else:
                up = ((idx & k) == 0) == ascending
            j = k >> 1
            while j >= 1:
                compare_exchange_round(machine, keys, payloads, j, up)
                j >>= 1
            k <<= 1
    return keys, payloads


def _randomized_sort(
    machine: Machine,
    keys: KeySpec,
    payloads: Sequence[ArrayLike],
    ascending: bool,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Expected-time sort: identical output, Valiant-routed cost model.

    The data is sorted host-side (a stable lexicographic sort), and the
    machine is charged the *measured* lockstep rounds of a flashsort-style
    randomized sort: two Valiant routing phases on a random permutation of
    matching size plus O(log n) splitter bookkeeping — the [Reif and
    Valiant 1987] substrate behind the paper's "expected" columns.
    """
    keys = _copy_arrays(as_key_list(keys))
    payloads = _copy_arrays([np.asarray(p) for p in payloads])
    length = len(keys[0])
    if any(len(p) != length for p in payloads):
        raise OperationContractError("payload arrays must match key length")
    check_segment_size(length, None)
    def _lexsortable(k: np.ndarray) -> bool:
        if ascending:
            return np.issubdtype(k.dtype, np.number)
        # Descending negates the keys, so unsigned ints are out.
        return (np.issubdtype(k.dtype, np.floating)
                or np.issubdtype(k.dtype, np.signedinteger))

    if all(_lexsortable(k) for k in keys):
        # Stable lexicographic argsort; least-significant key first for
        # np.lexsort.  Descending order negates the keys, which preserves
        # the tie order of a stable reverse sort (same permutation as
        # sorted(..., reverse=True)).
        cols = keys if ascending else [-k for k in keys]
        order = np.lexsort(tuple(reversed(cols)))
    else:
        reject_nan_keys(keys)
        order = np.asarray(sorted(
            range(length),
            key=lambda i: tuple(k[i] for k in keys),
            reverse=not ascending,
        ))
    keys = [k[order] for k in keys]
    payloads = [p[order] for p in payloads]
    _charge_randomized(machine, length)
    return keys, payloads


def _charge_randomized(machine: Machine, length: int) -> None:
    """Charge one randomized sort of ``length`` slots; each call draws
    the machine's next routing seed."""
    from ..machines.routing import randomized_sort_rounds

    machine._rand_calls += 1
    rounds = randomized_sort_rounds(length, seed=machine._rand_calls)
    machine.metrics.charge_comm(1.0, rounds=int(round(rounds)))
    machine.local(length, count=max(1, length.bit_length() - 1))


def _group_sort(
    group: MachineGroup,
    keys: KeySpec,
    payloads: Sequence[ArrayLike],
    ascending: bool,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """:func:`bitonic_sort` on a group with randomized members."""
    det = [m for m in group.members if not m.randomized]
    rand = [m for m in group.members if m.randomized]
    if det:
        out = bitonic_sort(MachineGroup(det), keys, payloads,
                           ascending=ascending)
    else:
        lead = rand.pop(0)
        with trace_span("randomized_sort", lead.metrics):
            out = _randomized_sort(lead, keys, payloads, ascending)
    for m in rand:
        _charge_randomized(m, len(out[0][0]))
    return out


def bitonic_merge(
    machine: Machine,
    keys: KeySpec,
    payloads: Sequence[ArrayLike] = (),
    *,
    ascending: bool = True,
    segment_size: int | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Merge two sorted halves of each aligned segment into one sorted run.

    Inside every ``segment_size`` block, slots ``[0, S/2)`` and ``[S/2, S)``
    must each be sorted ascending.  The second half is reversed by one
    lockstep long shift (turning the block into a bitonic sequence), then a
    single bitonic-merge stage finishes: ``Theta(sqrt(S))`` mesh time,
    ``Theta(log S)`` hypercube time — the *Merging* row of Table 1.
    """
    keys = _copy_arrays(as_key_list(keys))
    payloads = _copy_arrays([np.asarray(p) for p in payloads])
    length = len(keys[0])
    seg = check_segment_size(length, segment_size)
    if seg < 2:
        return keys, payloads
    half = seg // 2
    with trace_span("bitonic_merge", machine.metrics, n=length, segment=seg):
        if _plans.get_executor() == "vectorized":
            plan = _plans.get_merge_plan(machine, length, seg, bool(ascending))
            _plans.execute_plan(machine, plan, keys, payloads)
            return keys, payloads
        reject_nan_keys(keys)
        # Reverse the second half of every segment (one lockstep route).
        rev = np.arange(length)
        inseg = rev % seg
        rev = np.where(inseg >= half, rev - inseg + seg - 1 - (inseg - half),
                       rev)
        for arr in (*keys, *payloads):
            arr[:] = arr[rev]
        machine.long_shift(length, half)
        # One bitonic merge stage, comparisons in the requested direction.
        up = np.full(length, ascending)
        j = half
        while j >= 1:
            compare_exchange_round(machine, keys, payloads, j, up)
            j >>= 1
    return keys, payloads
