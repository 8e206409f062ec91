"""Figure 5 — partial functions: jump discontinuities and transitions.

Lemma 3.3 bounds the envelope of partial functions by
``lambda(n, s + 2k)``; Theorem 3.4 constructs it at no extra Theta cost.
Generation in :mod:`repro.report.figures`.
"""

import numpy as np

from repro import Polynomial, PolynomialFamily, envelope, mesh_machine
from repro.report import figures

from _util import rendered


def test_fig5_report(benchmark):
    rows = benchmark.pedantic(rendered, args=("figures",),
                              rounds=1, iterations=1)[7][2]   # Figure 5
    assert all(r[4] == "ok" for r in rows)
    # More transitions -> more pieces (the phenomenon Figure 5 depicts).
    by_nk = {(r[0], r[1]): r[2] for r in rows}
    assert by_nk[(32, 3)] > by_nk[(32, 1)]


def test_fig5_machine_cost_parity(benchmark):
    """Theorem 3.4: partial functions cost no more than total ones."""
    fam = PolynomialFamily(1)

    def run():
        fns = figures.partial_family(32, 2, seed=5)
        m_part = mesh_machine(1024)
        envelope(m_part, fns, fam)
        rng = np.random.default_rng(5)
        total_fns = [Polynomial(rng.uniform(-10, 10, 2)) for _ in range(32)]
        m_tot = mesh_machine(1024)
        envelope(m_tot, total_fns, fam)
        return m_part.metrics.time, m_tot.metrics.time

    t_part, t_tot = benchmark.pedantic(run, rounds=1, iterations=1)
    assert t_part < 6 * t_tot  # same Theta class, bounded constant
