"""Figure 4 — pieces of the minimum function, and the lambda(n, s) bounds.

Random families never exceed ``lambda(n, s)`` pieces; the tangent-lines
construction attains ``lambda(n, 1) = n`` exactly (Lemma 2.2's "best
possible").  Generation in :mod:`repro.report.figures`.
"""

import numpy as np

from repro import Polynomial, PolynomialFamily, envelope_serial

from _util import rendered


def test_fig4_report(benchmark):
    tables = benchmark.pedantic(rendered, args=("figures",),
                                rounds=1, iterations=1)
    assert all(r[4] == "ok" for r in tables[4][2])        # Figure 4
    assert all(r[3] == "tight" for r in tables[5][2])     # tangent lines
    # Theorem 2.3: alpha(n) <= 4 for any real n
    assert all(r[4] <= 4 for r in tables[6][2])


def test_fig4_envelope_construction(benchmark):
    rng = np.random.default_rng(0)
    fns = [Polynomial(rng.uniform(-10, 10, 2)) for _ in range(128)]
    fam = PolynomialFamily(1)
    env = benchmark(lambda: envelope_serial(fns, fam))
    assert len(env) <= 128
