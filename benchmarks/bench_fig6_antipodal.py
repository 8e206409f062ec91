"""Figure 6 — antipodal vertices, lines of support, and sectors.

Rotating calipers = sector-overlap brute force; pair counts linear;
the diameter is always antipodal (Shamos).  Generation in
:mod:`repro.report.figures`.
"""

from repro import power_fit
from repro.geometry import antipodal_pairs
from repro.report import figures

from _util import rendered


def test_fig6_report(benchmark):
    rows = benchmark.pedantic(rendered, args=("figures",),
                              rounds=1, iterations=1)[8][2]   # Figure 6
    assert all(r[3] == "yes" and r[4] == "yes" for r in rows)
    sizes = [r[0] for r in rows]
    counts = [r[1] for r in rows]
    fit = power_fit(sizes, counts)
    assert 0.8 < fit.exponent < 1.2
    for m, c in zip(sizes, counts):
        assert c <= 2 * m


def test_fig6_calipers_speed(benchmark):
    poly = figures.convex_polygon(128, seed=1)
    pairs = benchmark(lambda: antipodal_pairs(poly))
    assert len(pairs) >= len(poly) // 2
