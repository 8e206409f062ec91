"""Batched real-root isolation: one stacked eigensolve for many polynomials.

Step 4 of Lemma 3.1 solves ``f|I(t) = g|I(t)`` independently for every gap
of a combine — classically one tiny companion-matrix eigenvalue problem per
pair.  Resolving those one `np.linalg.eigvals` call at a time makes the
wall-clock cost of an envelope combine all Python/numpy dispatch overhead
rather than arithmetic.  This module stacks all difference polynomials of
equal companion size into a single ``(m, d, d)`` tensor and solves them with
one `np.linalg.eigvals` call.

Bit-identical contract
----------------------
The batched solver must not perturb *any* observable output: the simulated
parallel-time charges in ``benchmarks/perf/golden`` are derived from piece
counts, which are derived from root values, so the batch kernel reproduces
the scalar :meth:`Polynomial.real_roots` pipeline exactly:

* companion matrices are built precisely as ``np.roots`` builds them
  (including the exact-zero trailing-coefficient stripping that turns roots
  at 0 into appended zeros);
* LAPACK processes each matrix of a stacked ``(m, d, d)`` input
  independently, so the eigenvalues are bit-identical to ``m`` separate
  calls (verified by ``tests/kinetics/test_batch.py``);
* the post-processing (near-real filter, sort, Newton polish, range filter)
  is the *same code* as the scalar path — the batch kernel only installs
  the memoised candidate lists, and `real_roots` does the rest.

Degree <= 2 polynomials never touch LAPACK: they use the shared closed-form
helpers from :mod:`repro.kinetics.polynomial`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .polynomial import Polynomial, _quadratic_candidates

__all__ = ["batch_real_roots", "warm_root_candidates"]


def _companion_tensor(stacked: np.ndarray) -> np.ndarray:
    """The ``(m, N-1, N-1)`` companion tensor of ``m`` descending
    coefficient rows with nonzero leading coefficient.

    Row ``i`` reproduces ``np.roots``'s companion matrix of ``stacked[i]``:
    ones on the subdiagonal, ``-p[1:] / p[0]`` in the first row.
    """
    m, n1 = stacked.shape
    n = n1 - 1
    A = np.zeros((m, n, n), dtype=stacked.dtype)
    if n > 1:
        A[:, np.arange(1, n), np.arange(0, n - 1)] = 1.0
    A[:, 0, :] = -stacked[:, 1:] / stacked[:, :1]
    return A


def warm_root_candidates(polys: Sequence[Polynomial]) -> None:
    """Populate the root-candidate memo of every degree >= 2 polynomial.

    Polynomials of degree >= 3 are grouped by companion size and solved
    with one stacked `np.linalg.eigvals` call per group; quadratics use the
    shared closed form.  After this call, ``p.real_roots(lo, hi)`` is a
    pure range filter for every ``p`` given here.
    """
    groups: dict[int, list[tuple[Polynomial, np.ndarray, int]]] = {}
    for p in polys:
        if p._rc is not None or p.degree < 2:
            continue
        if p.degree == 2:
            p._rc = _quadratic_candidates(*p._cl)
            continue
        desc = p.coeffs[::-1]
        # np.roots strips exact trailing zeros (roots at 0, re-appended
        # after the eigensolve); the leading coefficient is nonzero by
        # construction (trimmed at |c| > COEFF_EPS).
        nz = np.nonzero(desc)[0]
        stripped = desc[: int(nz[-1]) + 1]
        zeros_at_origin = len(desc) - int(nz[-1]) - 1
        groups.setdefault(len(stripped), []).append(
            (p, stripped, zeros_at_origin)
        )
    for n, members in groups.items():
        if n == 1:
            # Only the leading term survives: all roots are at the origin.
            for p, _, z in members:
                comp = np.zeros(z)
                p._rc = p._companion_candidates(comp)
            continue
        stacked = np.vstack([s for _, s, _ in members])
        eigs = np.linalg.eigvals(_companion_tensor(stacked))
        for (p, _, z), row in zip(members, eigs):
            comp = np.hstack((row, np.zeros(z, row.dtype))) if z else row
            p._rc = p._companion_candidates(comp)


def batch_real_roots(polys: Sequence[Polynomial], lo: float = 0.0,
                     hi: float = math.inf) -> list[list[float]]:
    """``[p.real_roots(lo, hi) for p in polys]`` with batched eigensolves.

    Output is identical to the per-polynomial loop (same values, same
    tolerance handling, same ordering); only the host-side execution is
    batched.
    """
    warm_root_candidates(polys)
    return [p.real_roots(lo, hi) for p in polys]
