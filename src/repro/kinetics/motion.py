"""Motion functions and dynamic point systems (Section 2.4).

A :class:`Motion` is a point-object trajectory in Euclidean ``d``-space whose
coordinates are polynomials of time of degree at most ``k`` ("k-motion").  A
:class:`PointSystem` bundles ``n`` motions and validates the paper's input
assumption that no two points share an initial position.

The module also ships the workload generators used by the examples, tests,
and benchmarks: random k-motion, crossing traffic (guaranteed collisions for
Theorem 4.2), converging/expanding swarms (containment, Theorems 4.6–4.8)
and divergent systems with distinct steady-state behaviour (Section 5).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..errors import DegenerateSystemError
from .polynomial import Polynomial

__all__ = ["Motion", "PointSystem", "random_system", "crossing_traffic",
           "converging_swarm", "expanding_swarm", "divergent_system",
           "static_system", "projectile_system"]


class Motion:
    """A trajectory ``f: [0, inf) -> R^d`` with polynomial coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Polynomial]):
        cs = tuple(coords)
        if not cs:
            raise ValueError("a motion needs at least one coordinate")
        if not all(isinstance(c, Polynomial) for c in cs):
            raise TypeError("all coordinates must be Polynomial instances")
        self.coords: tuple[Polynomial, ...] = cs

    # ------------------------------------------------------------------
    @staticmethod
    def from_arrays(coeff_rows: Sequence[Sequence[float]]) -> "Motion":
        """Build from per-coordinate ascending coefficient rows."""
        return Motion(Polynomial(row) for row in coeff_rows)

    @staticmethod
    def stationary(point: Sequence[float]) -> "Motion":
        """A motionless point (degree-0 trajectory)."""
        return Motion(Polynomial.constant(x) for x in point)

    @staticmethod
    def linear(start: Sequence[float], velocity: Sequence[float]) -> "Motion":
        """Constant-velocity motion ``start + velocity * t`` (1-motion)."""
        if len(start) != len(velocity):
            raise ValueError("start and velocity dimensions differ")
        return Motion(
            Polynomial([float(s), float(v)]) for s, v in zip(start, velocity)
        )

    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def degree(self) -> int:
        """Maximum coordinate degree (the ``k`` of this motion)."""
        return max(c.degree for c in self.coords)

    def position(self, t: float) -> np.ndarray:
        """Position at time ``t`` as a length-``d`` array."""
        return np.array([c(t) for c in self.coords])

    def __call__(self, t: float) -> np.ndarray:
        return self.position(t)

    def __getitem__(self, axis: int) -> Polynomial:
        return self.coords[axis]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Motion):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Motion({', '.join(map(repr, self.coords))})"

    # ------------------------------------------------------------------
    def displacement(self, other: "Motion") -> tuple[Polynomial, ...]:
        """Coordinatewise difference ``other - self`` as polynomials."""
        if other.dimension != self.dimension:
            raise ValueError("motions live in different dimensions")
        return tuple(b - a for a, b in zip(self.coords, other.coords))

    def distance_squared(self, other: "Motion") -> Polynomial:
        """The polynomial ``d^2(t)`` between two motions.

        For k-motion this has degree at most ``2k`` — the quantity the
        closest/farthest-point algorithms of Theorem 4.1 build envelopes of.
        (Distances are compared via their squares throughout the paper, which
        keeps everything polynomial.)
        """
        acc = Polynomial.constant(0.0)
        for diff in self.displacement(other):
            acc = acc + diff * diff
        return acc


class PointSystem:
    """A dynamic system ``S = {P_0, ..., P_{n-1}}`` of moving point-objects.

    Validates the Section 2.4 assumptions: all motions share one dimension,
    and no two points have the same initial position (``f_i(0) != f_j(0)``).
    """

    __slots__ = ("motions",)

    def __init__(self, motions: Iterable[Motion], *, validate: bool = True):
        ms = list(motions)
        if not ms:
            raise DegenerateSystemError("a point system needs at least one point")
        d = ms[0].dimension
        if any(m.dimension != d for m in ms):
            raise DegenerateSystemError("all motions must share one dimension")
        if validate:
            starts = np.array([m.position(0.0) for m in ms])
            order = np.lexsort(starts.T[::-1])
            s = starts[order]
            # Absolute tolerance only (a relative one would scale with
            # coordinate magnitude and misread points 1e-4 apart as
            # coincident in campaign-scale systems); starts are finite.
            close = (np.abs(s[1:] - s[:-1]) <= 1e-12).all(axis=1)
            if close.any():
                k = int(np.argmax(close))
                a, b = order[k], order[k + 1]
                raise DegenerateSystemError(
                    f"points {a} and {b} share the initial position {starts[a]}"
                )
        self.motions: list[Motion] = ms

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.motions)

    def __iter__(self):
        return iter(self.motions)

    def __getitem__(self, i: int) -> Motion:
        return self.motions[i]

    @property
    def dimension(self) -> int:
        return self.motions[0].dimension

    @property
    def k(self) -> int:
        """The motion degree bound ``k`` of the system."""
        return max(m.degree for m in self.motions)

    def positions(self, t: float) -> np.ndarray:
        """All positions at time ``t`` as an ``(n, d)`` array."""
        return np.array([m.position(t) for m in self.motions])

    def distance_squared(self, i: int, j: int) -> Polynomial:
        """``d^2_{ij}(t)`` between points ``i`` and ``j``."""
        return self.motions[i].distance_squared(self.motions[j])

    def horizon(self) -> float:
        """A time beyond which every pairwise-distance comparison is settled.

        Computed from Cauchy root bounds of all coordinate polynomials; used
        by tests to sample "steady state" numerically.  O(n) work (bounds
        combine additively), not O(n^2).
        """
        h = 1.0
        for m in self.motions:
            for c in m.coords:
                h = max(h, c.horizon())
        return 2.0 * h


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------
def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_system(n: int, d: int = 2, k: int = 1, *, seed=0,
                  scale: float = 10.0) -> PointSystem:
    """``n`` points with uniformly random degree-``k`` coordinate polynomials.

    Initial positions are drawn from a grid-jittered distribution to satisfy
    the distinct-initial-positions assumption with probability 1.
    """
    rng = _rng(seed)
    motions = []
    for i in range(n):
        rows = []
        for _ in range(d):
            coeffs = rng.uniform(-scale, scale, size=k + 1)
            rows.append(coeffs)
        motions.append(Motion.from_arrays(rows))
    return PointSystem(motions)


def crossing_traffic(n: int, *, seed=0, lanes: float = 100.0) -> PointSystem:
    """Linear motions arranged so that point 0 provably collides.

    Air-traffic-control flavour: point 0 flies east along the x-axis; every
    odd-indexed point is aimed to cross point 0's position at a distinct
    time, and even-indexed points fly parallel (never colliding).  Used to
    exercise Theorem 4.2 with a known answer.
    """
    if n < 2:
        raise ValueError("need at least two aircraft")
    rng = _rng(seed)
    motions = [Motion.linear([0.0, 0.0], [1.0, 0.0])]
    for i in range(1, n):
        t_cross = float(i)
        if i % 2 == 1:
            # Start off-axis, meet point 0 at (t_cross, 0) at time t_cross.
            y0 = lanes * (1 + rng.uniform(0, 1))
            motions.append(
                Motion.linear([0.0, y0], [1.0, -y0 / t_cross])
            )
        else:
            motions.append(
                Motion.linear([0.0, -lanes * i], [1.0, 0.0])
            )
    return PointSystem(motions)


def converging_swarm(n: int, d: int = 2, *, seed=0, spread: float = 50.0) -> PointSystem:
    """Points that start spread out and head towards the origin region.

    The bounding box shrinks then (for generic velocities) grows again —
    exercising the smallest-ever enclosing hypercube of Corollary 4.8 with a
    strictly interior minimum.
    """
    rng = _rng(seed)
    motions = []
    for i in range(n):
        start = rng.uniform(-spread, spread, size=d)
        target_time = rng.uniform(5.0, 15.0)
        velocity = -start / target_time + rng.normal(0, 0.05, size=d)
        motions.append(Motion.linear(start, velocity))
    return PointSystem(motions)


def expanding_swarm(n: int, d: int = 2, *, seed=0) -> PointSystem:
    """Points radiating outwards from distinct positions near the origin."""
    rng = _rng(seed)
    motions = []
    for i in range(n):
        theta = 2 * math.pi * i / n
        if d == 2:
            direction = np.array([math.cos(theta), math.sin(theta)])
        else:
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
        start = direction * (1.0 + 0.01 * i)
        speed = rng.uniform(0.5, 2.0)
        motions.append(Motion.linear(start, direction * speed))
    return PointSystem(motions)


def divergent_system(n: int, d: int = 2, k: int = 1, *, seed=0) -> PointSystem:
    """k-motion with pairwise-distinct leading velocity/acceleration vectors.

    As ``t -> inf`` the points separate linearly (or faster), so every
    steady-state property of Section 5 — nearest neighbor, closest pair,
    hull, diameter, enclosing rectangle — is uniquely determined and stable,
    which makes the system a clean oracle workload.
    """
    rng = _rng(seed)
    motions = []
    for i in range(n):
        rows = []
        lead = rng.uniform(-1, 1, size=d)
        lead /= max(1e-9, np.linalg.norm(lead))
        lead *= 1.0 + i  # pairwise distinct speeds: unique steady geometry
        for axis in range(d):
            coeffs = list(rng.uniform(-5, 5, size=k))
            coeffs.append(lead[axis])
            rows.append(coeffs)
        motions.append(Motion.from_arrays(rows))
    return PointSystem(motions)


def static_system(points: Sequence[Sequence[float]]) -> PointSystem:
    """A 0-motion system from literal coordinates (Table 4 workloads)."""
    return PointSystem([Motion.stationary(p) for p in points])


def projectile_system(n: int, *, seed=0, gravity: float = 9.81,
                      speed: float = 40.0) -> PointSystem:
    """Ballistic projectiles: quadratic (k = 2) motion in the vertical plane.

    Each projectile launches from a distinct point on the ground with a
    random elevation angle; x is linear in time, y is ``y0 + v t - g/2 t^2``.
    A natural 2-motion workload for the containment and closest-pair
    problems (and deliberately *not* divergent: heights return to earth).
    """
    rng = _rng(seed)
    motions = []
    for i in range(n):
        x0 = 5.0 * i
        angle = rng.uniform(math.pi / 6, math.pi / 3)
        v = speed * rng.uniform(0.7, 1.3)
        vx = v * math.cos(angle) * rng.choice([-1.0, 1.0])
        vy = v * math.sin(angle)
        motions.append(Motion.from_arrays([
            [x0, vx],
            [0.0, vy, -gravity / 2.0],
        ]))
    return PointSystem(motions)
