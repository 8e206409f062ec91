"""Parallel prefix, semigroup, and broadcast (Section 2.6).

All three are built from lockstep *recursive-doubling* rounds: at round
``r`` every slot communicates with the slot ``2^r`` ranks away.  Summing the
per-round costs gives ``Theta(sqrt(n))`` on the mesh and ``Theta(log n)`` on
the hypercube — the first three rows of Table 1.

Segmented variants take a ``segments`` array of group ids (constant on each
string of PEs); combining never crosses a segment boundary, which is how the
paper performs operations "in parallel within multiple strings".
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import OperationContractError
from ..machines.machine import Machine
from ..trace.tracer import trace_span
from . import plans as _plans
from ._common import check_power_of_two

__all__ = ["parallel_prefix", "parallel_suffix", "semigroup", "broadcast",
           "fill_forward", "fill_backward"]


def _check(machine: Machine, values: np.ndarray,
           segments: np.ndarray | None) -> int:
    length = len(values)
    check_power_of_two(length)
    if segments is not None and len(segments) != length:
        raise OperationContractError("segments must match value length")
    return length


def parallel_prefix(
    machine: Machine,
    values: np.ndarray,
    op: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    segments: np.ndarray | None = None,
) -> np.ndarray:
    """Inclusive prefix ``p_i = x_1 * ... * x_i`` under associative ``op``.

    ``op`` must be vectorised over NumPy arrays (use ``np.frompyfunc`` to
    lift a scalar Python operator, including ones over object arrays).
    Returns a new array; cost is one doubling sweep.
    """
    vals = np.array(values, copy=True)
    length = _check(machine, vals, segments)
    fused = _plans.get_executor() == "vectorized"
    with trace_span("parallel_prefix", machine.metrics, n=length):
        d, bit = 1, 0
        while d < length:
            combined = op(vals[:-d], vals[d:])
            if segments is not None:
                same = segments[d:] == segments[:-d]
                vals[d:] = np.where(same, combined, vals[d:])
            else:
                vals[d:] = combined
            if not fused:
                machine.exchange(length, bit)
            d <<= 1
            bit += 1
        if fused:
            machine.doubling_sweep(length)
    return vals


def parallel_suffix(
    machine: Machine,
    values: np.ndarray,
    op: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    segments: np.ndarray | None = None,
) -> np.ndarray:
    """Inclusive suffix scan (prefix from the right)."""
    vals = np.array(values, copy=True)
    length = _check(machine, vals, segments)
    fused = _plans.get_executor() == "vectorized"
    with trace_span("parallel_suffix", machine.metrics, n=length):
        d, bit = 1, 0
        while d < length:
            combined = op(vals[:-d], vals[d:])
            if segments is not None:
                same = segments[d:] == segments[:-d]
                vals[:-d] = np.where(same, combined, vals[:-d])
            else:
                vals[:-d] = combined
            if not fused:
                machine.exchange(length, bit)
            d <<= 1
            bit += 1
        if fused:
            machine.doubling_sweep(length)
    return vals


def semigroup(
    machine: Machine,
    values: np.ndarray,
    op: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    segments: np.ndarray | None = None,
) -> np.ndarray:
    """Apply an associative, commutative ``op`` over each segment.

    Returns an array carrying the segment total in *every* slot of the
    segment (all-reduce style), which is what the algorithms consume.
    Unsegmented: a butterfly of ``log n`` exchange rounds.  Segmented:
    a prefix sweep followed by a backward fill.
    """
    vals = np.array(values, copy=True)
    length = _check(machine, vals, segments)
    if segments is None:
        with trace_span("semigroup", machine.metrics, n=length):
            if _plans.get_executor() == "vectorized":
                return _plans.execute_butterfly(machine, vals, op)
            d, bit = 1, 0
            while d < length:
                partner = np.arange(length) ^ d
                vals = op(vals, vals[partner])
                machine.exchange(length, bit)
                d <<= 1
                bit += 1
            return vals
    prefix = parallel_prefix(machine, vals, op, segments=segments)
    is_last = np.ones(length, dtype=bool)
    is_last[:-1] = segments[:-1] != segments[1:]
    return fill_backward(machine, prefix, is_last, segments=segments)


def fill_backward(
    machine: Machine,
    values: np.ndarray,
    defined: np.ndarray,
    *,
    segments: np.ndarray | None = None,
) -> np.ndarray:
    """Propagate each defined value leftward to earlier slots of its segment.

    Every slot receives the value of *a* defined slot to its right within
    its segment (callers guarantee at most one defined slot per relevant
    range, e.g. the last slot of each segment).  Slots with no defined slot
    to their right keep their original value.
    """
    vals = np.array(values, copy=True)
    has = np.array(defined, dtype=bool, copy=True)
    length = _check(machine, vals, segments)
    fused = _plans.get_executor() == "vectorized"
    d, bit = 1, 0
    while d < length:
        ok = ~has[:-d] & has[d:]
        if segments is not None:
            ok &= segments[:-d] == segments[d:]
        vals[:-d] = np.where(ok, vals[d:], vals[:-d])
        has[:-d] |= ok
        if not fused:
            machine.exchange(length, bit)
        d <<= 1
        bit += 1
    if fused:
        machine.doubling_sweep(length)
    return vals


def fill_forward(
    machine: Machine,
    values: np.ndarray,
    defined: np.ndarray,
    *,
    segments: np.ndarray | None = None,
) -> np.ndarray:
    """Mirror of :func:`fill_backward`: values propagate rightward."""
    vals = np.array(values, copy=True)
    has = np.array(defined, dtype=bool, copy=True)
    length = _check(machine, vals, segments)
    fused = _plans.get_executor() == "vectorized"
    d, bit = 1, 0
    while d < length:
        ok = ~has[d:] & has[:-d]
        if segments is not None:
            ok &= segments[:-d] == segments[d:]
        vals[d:] = np.where(ok, vals[:-d], vals[d:])
        has[d:] |= ok
        if not fused:
            machine.exchange(length, bit)
        d <<= 1
        bit += 1
    if fused:
        machine.doubling_sweep(length)
    return vals


def broadcast(
    machine: Machine,
    values: np.ndarray,
    marked: np.ndarray,
    *,
    segments: np.ndarray | None = None,
) -> np.ndarray:
    """Send each segment's single marked value to every slot of the segment.

    Section 2.6 *Broadcast*.  Exactly one slot per segment should be marked;
    with zero marked slots a segment keeps its original values.
    """
    marked = np.asarray(marked, dtype=bool)
    with trace_span("broadcast", machine.metrics, n=len(marked)):
        out = fill_forward(machine, values, marked, segments=segments)
        # Slots left of the marked one still need it: fill backward.
        return fill_backward(machine, out, marked, segments=segments)
