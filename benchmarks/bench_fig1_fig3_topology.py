"""Figures 1 and 3 — the machine models themselves.

Quantitative content: diameters (``2(sqrt n - 1)`` mesh, ``log2 n``
hypercube), link counts, and the per-rank-bit exchange distances the whole
cost model rests on.  Generation in :mod:`repro.report.figures`.
"""

import numpy as np

from repro.machines.indexing import gray_code

from _util import rendered


def test_fig1_fig3_report(benchmark):
    tables = benchmark.pedantic(rendered, args=("figures",),
                                rounds=1, iterations=1)
    for row in tables[0][2]:             # Figures 1 & 3
        assert row[1] == row[2]          # mesh diameter formula
        assert int(row[4]) == row[5]     # hypercube diameter formula
    profile = tables[1][2]               # exchange distances by rank bit
    assert [r[1] for r in profile] == \
        ["1", "1", "2", "2", "4", "4", "8", "8", "16", "16"]
    assert all(r[2] == "1" for r in profile)


def test_gray_code_neighbours(benchmark):
    def check():
        g = gray_code(np.arange(4096))
        diffs = g[:-1] ^ g[1:]
        return bool(np.all(diffs & (diffs - 1) == 0))
    assert benchmark(check)
