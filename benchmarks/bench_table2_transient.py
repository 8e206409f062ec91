"""Table 2 — transient behaviour problems (Section 4).

Paper: all six problems run in ``Theta(lambda^{1/2})`` mesh time (for
bounded k, essentially ``sqrt(n)``) and ``Theta(log^2 n)`` hypercube time
on lambda-bound many PEs.  Generation in :mod:`repro.report.table2`.
"""

import pytest

from repro.machines import mesh_machine
from repro.report import table2

from _util import rendered


def test_table2_report(benchmark):
    rows = benchmark.pedantic(rendered, args=("table2",),
                              rounds=1, iterations=1)[0][2]
    for row in rows:
        expo = float(row[3].split("^")[1].split(" ")[0])
        assert 0.3 < expo < 0.85, f"{row[0]}: mesh exponent {expo}"
        plog = float(row[5].split("^")[1])
        assert plog < 3.2, f"{row[0]}: hypercube growth log^{plog}"
    # Mesh strictly slower than the hypercube at the largest size, per row.
    assert [r[0] for r in rows] == list(table2.PROBLEMS)
    for row in rows:
        assert float(row[2]) > float(row[4]), row[0]


@pytest.mark.parametrize("problem", list(table2.PROBLEMS))
def test_table2_problem_mesh(benchmark, problem):
    make_system, run, _ = table2.PROBLEMS[problem]
    system = make_system(table2.SIZES[problem][0])
    benchmark(lambda: run(mesh_machine(1024), system))
