"""Table 4 — the static algorithms the steady-state solutions adapt.

Generation in :mod:`repro.report.table4`.
"""

import pytest

from repro.geometry import (
    closest_pair_parallel,
    convex_hull_parallel,
    enclosing_rectangle_parallel,
)
from repro.machines import hypercube_machine
from repro.report import table4

from _util import rendered


def test_table4_report(benchmark):
    rows = benchmark.pedantic(rendered, args=("table4",),
                              rounds=1, iterations=1)[0][2]
    by = {(r[0], r[1]): r[3] for r in rows}
    for key in (("closest pair", "mesh"), ("convex hull", "mesh")):
        expo = float(by[key].split("^")[1].split(" ")[0])
        assert 0.3 < expo < 0.8, f"{key}: {expo}"
    serial = float(
        by[("antipodal vertices", "serial")].split("^")[1].split(" ")[0]
    )
    assert 1.0 < serial < 1.5  # n log n sits just above linear


@pytest.mark.parametrize("algo,fn,pts", [
    ("closest-pair", closest_pair_parallel, table4.rand_points),
    ("convex-hull", convex_hull_parallel, table4.rand_points),
    ("rectangle", enclosing_rectangle_parallel, table4.circle),
], ids=["closest-pair", "convex-hull", "rectangle"])
def test_table4_algorithms(benchmark, algo, fn, pts):
    points = pts(128)
    benchmark(lambda: fn(hypercube_machine(128), points))
