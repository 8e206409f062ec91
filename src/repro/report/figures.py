"""Figure generators — the quantitative content of Figures 1–6."""

from __future__ import annotations

import math

import numpy as np

from ..analysis import geometric_sizes, power_fit
from ..core.envelope import (
    _forest_geometry,
    envelope_serial,
    normalize_inputs,
)
from ..core.family import PolynomialFamily
from ..geometry.antipodal import antipodal_pairs, antipodal_pairs_brute, diameter_pair
from ..geometry.convex_hull import convex_hull
from ..geometry.primitives import dist2
from ..kinetics.davenport_schinzel import (
    inverse_ackermann,
    lambda_bound,
    lambda_exact,
)
from ..kinetics.piecewise import INF, Piece, PiecewiseFunction
from ..kinetics.polynomial import Polynomial
from ..machines.indexing import (
    SCHEMES,
    adjacency_fraction,
    is_recursively_decomposable,
    max_consecutive_distance,
)
from ..machines.topology import HypercubeTopology, MeshTopology

TITLE = "Figures 1-6: models, indexing, envelopes, calipers"


# ----------------------------------------------------------------------
# Figures 1 & 3
# ----------------------------------------------------------------------
def topology_rows(sizes=None) -> list[list]:
    out = []
    for n in sizes or geometric_sizes(16, 4096, factor=4):
        mesh = MeshTopology(n)
        cube = HypercubeTopology(n)
        out.append([
            n,
            f"{mesh.diameter:.0f}",
            f"{2 * (int(np.sqrt(n)) - 1)}",
            2 * mesh.side * (mesh.side - 1),
            f"{cube.diameter:.0f}",
            int(np.log2(n)),
            n * cube.dim // 2,
        ])
    return out


def exchange_profile_rows(n: int = 1024) -> list[list]:
    mesh = MeshTopology(n)
    cube = HypercubeTopology(n)
    return [
        [bit, f"{mesh.exchange_distance(bit):.0f}",
         f"{cube.exchange_distance(bit):.0f}"]
        for bit in range(int(np.log2(n)))
    ]


# ----------------------------------------------------------------------
# Figure 2
# ----------------------------------------------------------------------
def bitonic_network_hops(scheme) -> int:
    """Total lockstep hop cost of the full bitonic network under a scheme."""
    n = scheme.side * scheme.side
    r, c = scheme.all_coords()
    ranks = np.arange(n)
    total = 0
    k = 2
    while k <= n:
        j = k >> 1
        while j >= 1:
            partner = ranks ^ j
            dist = np.abs(r - r[partner]) + np.abs(c - c[partner])
            total += int(dist.max())
            j >>= 1
        k <<= 1
    return total


def locality_rows(n: int = 1024) -> list[list]:
    out = []
    for name, make in SCHEMES.items():
        scheme = make(n)
        out.append([
            name,
            f"{adjacency_fraction(scheme):.3f}",
            max_consecutive_distance(scheme),
            "yes" if is_recursively_decomposable(scheme) else "no",
            bitonic_network_hops(scheme),
        ])
    return out


def scheme_sort_scaling(name: str, sizes=None):
    sizes = sizes or [64, 256, 1024, 4096]
    costs = [bitonic_network_hops(SCHEMES[name](n)) for n in sizes]
    return sizes, costs


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------
def _most_pieces(trials: list, family: PolynomialFamily) -> int:
    """The most pieces among the lower envelopes of the ``trials`` (curve
    lists), built as one forest of independent instances."""
    trees = [(normalize_inputs(fns), "min") for fns in trials]
    return max((len(env) for env, _ in _forest_geometry(trees, family)),
               default=0)


def max_observed_pieces(n: int, degree: int, trials: int = 12) -> int:
    curves = []
    for trial in range(trials):
        rng = np.random.default_rng(1000 * degree + trial)
        curves.append([Polynomial(rng.uniform(-10, 10, degree + 1))
                       for _ in range(n)])
    return _most_pieces(curves, PolynomialFamily(degree))


def tangent_lines(n: int) -> list[Polynomial]:
    """Tangents to the concave parabola -t^2: attains lambda(n, 1) = n."""
    return [Polynomial([(1.0 + i) ** 2, -2.0 * (1.0 + i)]) for i in range(n)]


def figure4_rows() -> list[list]:
    out = []
    for n in (4, 8, 16, 32, 64):
        for s in (1, 2):
            bound = lambda_exact(n, s)
            seen = max_observed_pieces(n, s)
            out.append([n, s, seen, bound,
                        "ok" if seen <= bound else "VIOLATION"])
    return out


def tightness_rows() -> list[list]:
    out = []
    for n in (4, 16, 64):
        env = envelope_serial(tangent_lines(n), PolynomialFamily(1))
        out.append([n, len(env), lambda_exact(n, 1),
                    "tight" if len(env) == n else "NOT TIGHT"])
    return out


def lambda_rows() -> list[list]:
    return [
        [n, lambda_exact(n, 1), lambda_exact(n, 2), lambda_bound(n, 3),
         inverse_ackermann(n)]
        for n in (4, 16, 64, 256, 1024, 10**6)
    ]


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------
def partial_family(n: int, k_transitions: int, seed) -> list[PiecewiseFunction]:
    """n linear curves with ~2k defined/undefined switches each."""
    rng = np.random.default_rng(seed)
    fns = []
    for i in range(n):
        poly = Polynomial(rng.uniform(-10, 10, 2))
        cuts = np.sort(rng.uniform(0, 30, 2 * k_transitions))
        pieces = []
        lo, take = 0.0, True
        for c in list(cuts) + [INF]:
            if take and c - lo > 1e-6:
                pieces.append(Piece(lo, c, poly, i))
            take = not take
            lo = c
        fns.append(PiecewiseFunction(pieces, validate=False))
    return fns


def figure5_rows() -> list[list]:
    fam = PolynomialFamily(1)
    out = []
    for n in (8, 16, 32):
        for k in (1, 2, 3):
            worst = _most_pieces(
                [partial_family(n, k, seed=100 * n + 10 * k + trial)
                 for trial in range(8)], fam)
            bound = lambda_bound(n, 1 + 2 * k)
            out.append([n, k, worst, bound,
                        "ok" if worst <= bound else "VIOLATION"])
    return out


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------
def convex_polygon(m: int, seed) -> list[tuple]:
    rng = np.random.default_rng(seed)
    pts = [((10 + rng.uniform(0, 2)) * math.cos(2 * math.pi * i / m),
            (10 + rng.uniform(0, 2)) * math.sin(2 * math.pi * i / m))
           for i in range(m)]
    hull = convex_hull(pts)
    return [pts[i] for i in hull]


def figure6_rows() -> list[list]:
    out = []
    for m in (4, 8, 16, 32, 64):
        poly = convex_polygon(m, seed=m)
        pairs = antipodal_pairs(poly)
        brute = antipodal_pairs_brute(poly)
        i, j = diameter_pair(poly)
        true_diam = max(dist2(a, b) for x, a in enumerate(poly)
                        for b in poly[x + 1:])
        out.append([
            len(poly), len(pairs), len(brute),
            "yes" if set(pairs) == set(brute) else "NO",
            "yes" if abs(dist2(poly[i], poly[j]) - true_diam) < 1e-9 else "NO",
        ])
    return out


def tables() -> list[tuple]:
    scaling = []
    for name in SCHEMES:
        sizes, costs = scheme_sort_scaling(name)
        scaling.append([name, costs[-1], power_fit(sizes, costs).describe()])
    return [
        ("Figures 1 & 3: machine structure",
         ["n", "mesh diameter", "2(sqrt n - 1)", "mesh links",
          "cube diameter", "log2 n", "cube links"],
         topology_rows()),
        ("Per-rank-bit exchange distances (n = 1024)",
         ["rank bit", "mesh hops (2^(b//2))", "hypercube hops"],
         exchange_profile_rows()),
        ("Figure 2: indexing schemes of a 32x32 mesh",
         ["scheme", "adjacent fraction", "max consecutive dist",
          "recursively decomposable", "bitonic network hops"],
         locality_rows()),
        ("Bitonic-network hop scaling by scheme",
         ["scheme", "hops (n=4096)", "fit"],
         scaling),
        ("Figure 4 / Lemma 2.2: envelope piece counts vs lambda(n, s)",
         ["n", "s", "max observed pieces", "lambda(n, s)", "check"],
         figure4_rows()),
        ("Worst case attained: tangent lines to a parabola (s = 1)",
         ["n", "envelope pieces", "lambda(n,1)", "status"],
         tightness_rows()),
        ("Theorem 2.3: lambda(n, s) and the inverse Ackermann function",
         ["n", "lambda(n,1)=n", "lambda(n,2)=2n-1", "lambda bound (s=3)",
          "alpha(n)"],
         lambda_rows()),
        ("Figure 5 / Lemma 3.3: partial envelopes vs lambda(n, s+2k)",
         ["n", "transitions k", "max observed pieces", "lambda bound",
          "check"],
         figure5_rows()),
        ("Figure 6 / Lemma 5.5: antipodal pairs by rotating calipers",
         ["hull size m", "calipers pairs", "sector-brute pairs",
          "sets equal", "diameter correct"],
         figure6_rows()),
    ]
