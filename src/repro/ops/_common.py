"""Shared helpers for the data-movement operations."""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np
from numpy.typing import ArrayLike

from ..errors import OperationContractError

#: One key array, or several comparing lexicographically (most significant
#: first) — the key spec every sort/merge entry point accepts.
KeySpec = Union[ArrayLike, Sequence[ArrayLike]]

__all__ = ["as_key_list", "reject_nan_keys", "lex_gt", "lex_eq",
           "check_power_of_two", "check_segment_size", "next_pow2"]


def next_pow2(m: int) -> int:
    """Smallest power of two >= max(m, 1)."""
    return 1 << max(0, (max(m, 1) - 1).bit_length())


def check_power_of_two(length: int, what: str = "operation length") -> None:
    if length < 1 or (length & (length - 1)):
        raise OperationContractError(f"{what} must be a power of two, got {length}")


def check_segment_size(length: int, segment_size: int | None) -> int:
    """Validate and default the per-segment size for segmented networks."""
    check_power_of_two(length)
    if segment_size is None:
        return length
    check_power_of_two(segment_size, "segment size")
    if segment_size > length or length % segment_size:
        raise OperationContractError(
            f"segment size {segment_size} incompatible with length {length}"
        )
    return segment_size


def as_key_list(keys: KeySpec) -> list[np.ndarray]:
    """Normalise a key spec (one array or a list of arrays) to a list.

    Multiple keys compare lexicographically, most significant first.
    NaN keys are rejected: NaN comparisons are all-false, which would make
    the compare-exchange network silently produce garbage.  Object arrays
    are checked where their elements are walked anyway: key lowering
    (:mod:`repro.ops.vexec`) or :func:`reject_nan_keys`.
    """
    if isinstance(keys, np.ndarray):
        keys = [keys]
    keys = [np.asarray(k) for k in keys]
    if not keys:
        raise OperationContractError("at least one key array is required")
    length = len(keys[0])
    if any(len(k) != length for k in keys):
        raise OperationContractError("key arrays must share one length")
    for k in keys:
        if np.issubdtype(k.dtype, np.floating) and np.isnan(k).any():
            raise OperationContractError("keys must not contain NaN")
    return keys


def _is_nan(value) -> bool:
    if isinstance(value, tuple):
        return any(map(_is_nan, value))
    return isinstance(value, (float, np.floating)) and value != value


def reject_nan_keys(keys: list[np.ndarray]) -> None:
    """Raise on a NaN in an object key array, as a scalar or in a tuple."""
    for k in keys:
        if k.dtype == object and any(map(_is_nan, k.tolist())):
            raise OperationContractError("keys must not contain NaN")


def _bool(arr: ArrayLike) -> np.ndarray:
    return np.asarray(arr, dtype=bool)


def lex_gt(a: list[np.ndarray], b: list[np.ndarray]) -> np.ndarray:
    """Vectorised lexicographic ``a > b`` over parallel key lists."""
    gt = np.zeros(len(a[0]), dtype=bool)
    eq = np.ones(len(a[0]), dtype=bool)
    for x, y in zip(a, b):
        gt |= eq & _bool(x > y)
        eq &= _bool(x == y)
    return gt


def lex_eq(a: list[np.ndarray], b: list[np.ndarray]) -> np.ndarray:
    """Vectorised lexicographic equality over parallel key lists."""
    eq = np.ones(len(a[0]), dtype=bool)
    for x, y in zip(a, b):
        eq &= _bool(x == y)
    return eq
