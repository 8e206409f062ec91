"""Table 1 — running times of the fundamental data movement operations.

Paper's claims (n-PE machines): semigroup / broadcast / prefix / merge are
``Theta(sqrt n)`` mesh and ``Theta(log n)`` hypercube; sorting and grouping
are ``Theta(sqrt n)`` mesh and ``Theta(log^2 n)`` hypercube, expected
``Theta(log n)`` with randomized sorting.  Generation lives in
:mod:`repro.report.table1`; this bench asserts the fitted growth classes
on its rows.
"""

import numpy as np
import pytest

from repro.machines import hypercube_machine, mesh_machine
from repro.report import table1

from _util import rendered


def test_table1_report(benchmark):
    rows = benchmark.pedantic(rendered, args=("table1",),
                              rounds=1, iterations=1)[0][2]
    fits = {r[0]: r for r in rows}
    # Mesh: every operation Theta(sqrt n) -> exponent ~0.5.
    for op in table1.OPS:
        expo = float(fits[op][2].split("^")[1].split(" ")[0])
        assert 0.35 < expo < 0.75, f"{op}: mesh exponent {expo}"
    # Hypercube: sort/grouping ~ log^2; others ~ log.
    for op in ("sort", "grouping"):
        p = float(fits[op][4].split("^")[1])
        assert p > 1.5, f"{op}: expected ~log^2 growth, got log^{p}"
    for op in ("semigroup", "broadcast", "prefix", "merge"):
        p = float(fits[op][4].split("^")[1])
        assert p < 1.7, f"{op}: expected ~log growth, got log^{p}"


@pytest.mark.parametrize("op", table1.OPS)
def test_table1_mesh_op(benchmark, op):
    rng = np.random.default_rng(0)
    benchmark(lambda: table1.run_op(mesh_machine(1024), op, 1024, rng))


@pytest.mark.parametrize("op", table1.OPS)
def test_table1_hypercube_op(benchmark, op):
    rng = np.random.default_rng(0)
    benchmark(lambda: table1.run_op(hypercube_machine(1024), op, 1024, rng))
