"""Adversarial k-motion instance generators for the verification layer.

Boxer's dynamic-CG survey catalogs the configurations that break naive
kinetic implementations: tangencies (curves that touch without crossing),
coincident/duplicate trajectories, breakpoint ties (many curves through one
point), and degree-boundary coefficients (leading coefficients that vanish
or nearly vanish).  Every family here is produced two ways from one shared
builder:

* **seeded deterministic builders** — :func:`make_curves` /
  :func:`make_system` — pure functions of ``(kind, seed, n)``, so an oracle
  failure replays from its ``(kind, seed)`` alone;
* **Hypothesis strategies** — :func:`curve_lists` / :func:`planar_systems` —
  for the property tests under ``tests/``.

Coefficients are quantised to multiples of 1/4 (the same trick as the
existing geometry tests) so root finding stays well-conditioned; the
``near_degenerate`` family deliberately relaxes that to probe tolerance
boundaries, but keeps perturbations far below the oracle's comparison
tolerance.

Instances serialize to plain JSON (:func:`curves_to_json` /
:func:`system_to_json`) for the failure corpus under ``tests/corpus/``.
"""

from __future__ import annotations

import math

import numpy as np

from ..kinetics.motion import (
    Motion,
    PointSystem,
    converging_swarm,
    crossing_traffic,
    random_system,
)
from ..kinetics.polynomial import Polynomial

__all__ = [
    "CURVE_KINDS", "SYSTEM_KINDS", "SYSTEM_SIZE_FLOORS",
    "make_curves", "make_system",
    "curves_to_json", "curves_from_json",
    "system_to_json", "system_from_json",
    "curve_lists", "planar_systems",
]

#: Quantisation step for well-conditioned coefficients.
_STEP = 0.25


def _check_size(name: str, value, minimum: int) -> int:
    """Validate an integral size argument; reject bools, floats, and
    anything below ``minimum`` with an error naming the argument.

    Campaign drivers sweep sizes programmatically (now up to 2^20 slots);
    a float that slipped through arithmetic or a negative n must fail
    here, loudly, not inside a builder's ``range()``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _quant(rng: np.random.Generator, size, lo=-10.0, hi=10.0) -> np.ndarray:
    """Random coefficients quantised to multiples of ``_STEP``."""
    return np.round(rng.uniform(lo, hi, size=size) / _STEP) * _STEP


# ======================================================================
# Curve families (envelope-level instances)
# ======================================================================
def _curves_random(rng: np.random.Generator, n: int, s: int) -> list[Polynomial]:
    """Generic position: quantised random degree-<=s polynomials.

    One ``(n, s + 1)`` draw: the generator fills it in the order of ``n``
    draws of ``s + 1`` values, so the curves are those of a per-curve
    loop.
    """
    return [Polynomial(row) for row in _quant(rng, (n, s + 1)).tolist()]


def _curves_tangent(rng: np.random.Generator, n: int, s: int) -> list[Polynomial]:
    """Pairs that *touch* without crossing: g = f + c (t - a)^2, c > 0.

    The difference has a double root at ``a`` — the envelope must neither
    invent a crossing there nor lose the tangency point.
    """
    out = []
    while len(out) < n:
        f = Polynomial(_quant(rng, max(1, s - 1)))
        a = float(np.round(rng.uniform(0.5, 8.0) / _STEP) * _STEP)
        c = float(np.round(rng.uniform(0.25, 2.0) / _STEP) * _STEP) or _STEP
        bump = Polynomial([a * a * c, -2.0 * a * c, c])  # c (t - a)^2
        out.append(f)
        out.append(f + bump)
    return out[:n]


def _curves_duplicate(rng: np.random.Generator, n: int, s: int) -> list[Polynomial]:
    """Coincident trajectories: exact duplicates interleaved with others."""
    base = _curves_random(rng, max(1, n // 2), s)
    out = list(base)
    while len(out) < n:
        out.append(base[int(rng.integers(0, len(base)))])
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _curves_tie(rng: np.random.Generator, n: int, s: int) -> list[Polynomial]:
    """Breakpoint ties: every curve passes through one common point.

    At ``(t0, y0)`` all pairwise crossings coincide, so the envelope has a
    maximal-multiplicity breakpoint there — the classic tie case for
    merge-based envelope construction.
    """
    t0 = float(np.round(rng.uniform(1.0, 6.0) / _STEP) * _STEP)
    y0 = float(np.round(rng.uniform(-4.0, 4.0) / _STEP) * _STEP)
    out = []
    for _ in range(n):
        coeffs = _quant(rng, s + 1)
        f = Polynomial(coeffs)
        # Shift so that f(t0) = y0 exactly (constant-term adjustment).
        out.append(f + Polynomial.constant(y0 - f(t0)))
    return out


def _curves_degree_boundary(rng: np.random.Generator, n: int, s: int) -> list[Polynomial]:
    """Degree-boundary cases: vanishing leading coefficients and constants.

    A family advertised as degree ``s`` whose members have effective degree
    ``< s`` (trailing zero coefficients) exercises the trimmed-representation
    paths of `Polynomial` and the ``lambda(n, s)`` head-room of the engine.
    """
    out = []
    for i in range(n):
        coeffs = _quant(rng, s + 1)
        drop = int(rng.integers(0, s + 1))  # zero out this many leading terms
        if drop:
            coeffs[len(coeffs) - drop:] = 0.0
        if not np.any(coeffs):
            coeffs[0] = _STEP
        out.append(Polynomial(coeffs))
    return out


def _curves_near_degenerate(rng: np.random.Generator, n: int, s: int) -> list[Polynomial]:
    """Nearly coincident curves and nearly vanishing leading coefficients.

    Perturbations sit at 1e-12 — far below the oracle tolerance, so every
    backend must agree on the *values* even where tie-breaking differs.
    """
    base = _curves_random(rng, max(1, (n + 1) // 2), s)
    out = list(base)
    while len(out) < n:
        f = base[int(rng.integers(0, len(base)))]
        tweak = 1e-12 * _quant(rng, 1, lo=-1.0, hi=1.0)[0]
        out.append(f + Polynomial.constant(tweak))
    return out[:n]


#: name -> builder(rng, n, s) for envelope-level instances.
CURVE_KINDS = {
    "random": _curves_random,
    "tangent": _curves_tangent,
    "duplicate": _curves_duplicate,
    "tie": _curves_tie,
    "degree_boundary": _curves_degree_boundary,
    "near_degenerate": _curves_near_degenerate,
}


def make_curves(kind: str, seed: int, n: int = 8, s: int = 2) -> list[Polynomial]:
    """Deterministic curve instance: a pure function of ``(kind, seed, n, s)``.

    Returns exactly ``n`` curves for every kind, for any ``n >= 1`` up to
    campaign scale (2^20 and beyond: builder work and coefficient
    magnitudes grow at most linearly in ``n``).
    """
    if kind not in CURVE_KINDS:
        raise KeyError(f"unknown curve kind {kind!r}; have {sorted(CURVE_KINDS)}")
    n = _check_size("n", n, 1)
    s = _check_size("s", s, 0)
    rng = np.random.default_rng(seed)
    return CURVE_KINDS[kind](rng, n, s)


# ======================================================================
# Point-system families (Section 4/5 instances)
# ======================================================================
def _distinct_starts(motions: list[Motion]) -> list[Motion]:
    """Nudge initial positions apart so PointSystem validation passes.

    The nudge repeats until the position is actually unoccupied: families
    quantise starts to the ``_STEP`` grid, so at campaign sizes (2^17+)
    a single fixed offset routinely lands on another occupied grid point.
    """
    seen = set()
    out = []
    for i, m in enumerate(motions):
        base = list(m.coords)
        start = tuple(float(c(0.0)) for c in base)
        bump = 0.0
        while start in seen:
            bump += _STEP * (i + 1)
            coords = list(base)
            coords[0] = coords[0] + Polynomial.constant(bump)
            m = Motion(coords)
            start = tuple(float(c(0.0)) for c in m.coords)
        seen.add(start)
        out.append(m)
    return out


def _system_random(rng: np.random.Generator, n: int, k: int) -> PointSystem:
    return random_system(n, d=2, k=k, seed=rng)


def _system_crossing(rng: np.random.Generator, n: int, k: int) -> PointSystem:
    return crossing_traffic(n, seed=rng)


def _system_converging(rng: np.random.Generator, n: int, k: int) -> PointSystem:
    return converging_swarm(n, seed=rng)


def _system_grazing(rng: np.random.Generator, n: int, k: int) -> PointSystem:
    """Tangential encounters: trajectories whose d^2 minima touch zero.

    Point 0 moves east along the x-axis; odd points are aimed to *exactly*
    meet it (a grazing collision: ``d^2`` has a double root at zero), even
    points pass at a small but safe offset.
    """
    motions = [Motion.linear([0.0, 0.0], [1.0, 0.0])]
    for i in range(1, n):
        t_meet = float(i) + 0.5
        offset = 0.0 if i % 2 == 1 else _STEP * i
        y0 = float(np.round(rng.uniform(2.0, 10.0) / _STEP) * _STEP)
        motions.append(Motion.linear(
            [0.0, y0 + offset], [1.0, -y0 / t_meet]
        ))
    return PointSystem(_distinct_starts(motions))


def _system_symmetric(rng: np.random.Generator, n: int, k: int) -> PointSystem:
    """Mirror-symmetric configuration: pairwise-tied distance curves.

    Points come in (x, y) / (x, -y) mirror pairs with mirrored velocities,
    so the squared distances to the on-axis query point 0 coincide exactly —
    duplicate envelope curves and permanent ties.
    """
    motions = [Motion.linear([0.0, 0.0], [_STEP, 0.0])]
    i = 0
    while len(motions) < n:
        i += 1
        x = float(np.round(rng.uniform(1.0, 8.0) / _STEP) * _STEP) + i
        y = float(np.round(rng.uniform(0.5, 6.0) / _STEP) * _STEP)
        vx = float(np.round(rng.uniform(-2.0, 2.0) / _STEP) * _STEP)
        vy = float(np.round(rng.uniform(-2.0, 2.0) / _STEP) * _STEP)
        motions.append(Motion.linear([x, y], [vx, vy]))
        motions.append(Motion.linear([x, -y], [vx, -vy]))
    return PointSystem(_distinct_starts(motions[:n]))


def _system_parallel(rng: np.random.Generator, n: int, k: int) -> PointSystem:
    """Coincident velocity vectors: a rigidly translating configuration.

    Every relative trajectory is constant, so angle curves never move and
    all steady-state comparisons reduce to constant-term sign tests — the
    degenerate end of Lemma 5.1.
    """
    v = _quant(rng, 2, lo=-3.0, hi=3.0)
    motions = []
    for i in range(n):
        start = _quant(rng, 2, lo=-8.0, hi=8.0) + np.array([0.0, 0.5 * i])
        motions.append(Motion.linear(start, v))
    return PointSystem(_distinct_starts(motions))


def _system_quadratic(rng: np.random.Generator, n: int, k: int) -> PointSystem:
    """Degree-boundary motion: a mix of k-motion, linear and stationary
    points in one system (effective degrees 0..k)."""
    motions = []
    for i in range(n):
        eff_k = int(rng.integers(0, max(1, k) + 1))
        rows = [_quant(rng, eff_k + 1, lo=-6.0, hi=6.0) for _ in range(2)]
        motions.append(Motion.from_arrays(rows))
    return PointSystem(_distinct_starts(motions))


#: name -> builder(rng, n, k) for point-system instances (all planar).
SYSTEM_KINDS = {
    "random": _system_random,
    "crossing": _system_crossing,
    "converging": _system_converging,
    "grazing": _system_grazing,
    "symmetric": _system_symmetric,
    "parallel": _system_parallel,
    "mixed_degree": _system_quadratic,
}

#: Smallest meaningful instance per family: the seed configuration each
#: geometry needs (a collider and a target, a mirror pair plus the
#: on-axis query point, ...).  :func:`make_system` pads requests below
#: the floor up to it, so every family returns ``max(n, floor)`` points.
SYSTEM_SIZE_FLOORS = {
    "random": 1,
    "crossing": 2,
    "converging": 2,
    "grazing": 2,
    "symmetric": 3,
    "parallel": 2,
    "mixed_degree": 2,
}


def make_system(kind: str, seed: int, n: int = 8, k: int = 1) -> PointSystem:
    """Deterministic system instance: a pure function of ``(kind, seed, n, k)``.

    Returns exactly ``max(n, SYSTEM_SIZE_FLOORS[kind])`` points, for any
    ``n >= 1`` up to campaign scale (2^20 and beyond: builder work and
    coordinate magnitudes grow at most linearly in ``n``).
    """
    if kind not in SYSTEM_KINDS:
        raise KeyError(f"unknown system kind {kind!r}; have {sorted(SYSTEM_KINDS)}")
    n = _check_size("n", n, 1)
    k = _check_size("k", k, 0)
    n = max(n, SYSTEM_SIZE_FLOORS[kind])
    rng = np.random.default_rng(seed)
    return SYSTEM_KINDS[kind](rng, n, k)


# ======================================================================
# JSON serialization (the failure corpus format)
# ======================================================================
def curves_to_json(fns: list[Polynomial]) -> dict:
    return {"type": "curves", "coeffs": [list(f._cl) for f in fns]}


def curves_from_json(data: dict) -> list[Polynomial]:
    if data.get("type") != "curves":
        raise ValueError(f"not a curve instance: {data.get('type')!r}")
    return [Polynomial(row) for row in data["coeffs"]]


def system_to_json(system: PointSystem) -> dict:
    return {
        "type": "system",
        "motions": [
            [list(c._cl) for c in m.coords] for m in system
        ],
    }


def system_from_json(data: dict) -> PointSystem:
    if data.get("type") != "system":
        raise ValueError(f"not a system instance: {data.get('type')!r}")
    return PointSystem(
        [Motion.from_arrays(rows) for rows in data["motions"]],
        validate=False,
    )


# ======================================================================
# Hypothesis strategies (property tests)
# ======================================================================
def _require_hypothesis():
    try:
        from hypothesis import strategies as st
    except ImportError as exc:  # pragma: no cover - test extra not installed
        raise RuntimeError(
            "hypothesis is required for the strategy API; "
            "install the [test] extra or use make_curves/make_system"
        ) from exc
    return st


def curve_lists(s: int = 2, min_size: int = 2, max_size: int = 8,
                adversarial: bool = True):
    """Hypothesis strategy: lists of degree-<=s polynomials.

    With ``adversarial=True`` (default) each draw may route through one of
    the degenerate families — duplicates, common-point ties, tangencies,
    vanishing leading coefficients — via a drawn seed, so shrinking still
    works (the seed and size shrink, the family set stays fixed).
    """
    st = _require_hypothesis()
    coeff = st.integers(-40, 40).map(lambda v: v * _STEP)
    generic = st.lists(
        st.lists(coeff, min_size=1, max_size=s + 1).map(Polynomial),
        min_size=min_size, max_size=max_size,
    )
    if not adversarial:
        return generic
    kinds = sorted(CURVE_KINDS)
    seeded = st.tuples(
        st.sampled_from(kinds),
        st.integers(0, 2**31 - 1),
        st.integers(min_size, max_size),
    ).map(lambda kns: make_curves(kns[0], kns[1], n=kns[2], s=s))
    return st.one_of(generic, seeded)


def planar_systems(min_size: int = 3, max_size: int = 8, k: int = 1,
                   kinds: tuple = ("random", "grazing", "symmetric",
                                   "parallel", "mixed_degree")):
    """Hypothesis strategy: planar k-motion systems from the named families."""
    st = _require_hypothesis()
    return st.tuples(
        st.sampled_from(sorted(kinds)),
        st.integers(0, 2**31 - 1),
        st.integers(min_size, max_size),
    ).map(lambda kns: make_system(kns[0], kns[1], n=kns[2], k=k))
