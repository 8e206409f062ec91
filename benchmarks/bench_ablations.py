"""Ablation benches — why the paper's design choices matter.

* Indexing ablation: the Table 1 mesh sort, re-costed under each Figure 2
  indexing scheme — shuffled-row-major must be cheapest, with the lowest
  growth exponent (the Thompson–Kung argument).
* Recursion ablation: Theorem 3.2's recursive halving vs folding functions
  in one at a time — the insertion variant's mesh time must grow about
  linearly faster, and the penalty must widen with n.

Generation in :mod:`repro.report.ablations`.
"""

from _util import rendered


def test_indexing_ablation(benchmark):
    rows = benchmark.pedantic(rendered, args=("ablations",),
                              rounds=1, iterations=1)[0][2]
    by = {r[0]: float(r[1]) for r in rows}
    assert by["shuffled-row-major"] == min(by.values())
    fits = {r[0]: float(r[2].split("^")[1].split(" ")[0]) for r in rows}
    assert fits["shuffled-row-major"] <= min(fits.values()) + 1e-9


def test_recursion_ablation(benchmark):
    rows = benchmark.pedantic(rendered, args=("ablations",),
                              rounds=1, iterations=1)[1][2]
    penalties = [float(r[3][:-1]) for r in rows if r[0] != "fit"]
    assert all(p > 1.0 for p in penalties)
    assert penalties[-1] > 2 * penalties[0], "the gap must widen"
    fit_row = rows[-1]
    rec_expo = float(fit_row[1].split("^")[1].split(" ")[0])
    ins_expo = float(fit_row[2].split("^")[1].split(" ")[0])
    assert ins_expo > rec_expo + 0.5
