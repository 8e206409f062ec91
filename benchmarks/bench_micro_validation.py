"""Cross-level validation: the abstract cost model vs the micro machines.

Mesh: broadcast/semigroup round counts must track the model within a
constant factor; shearsort must pay a widening log-factor over the
Thompson-Kung bitonic totals.  Hypercube: round counts must be exactly
equal.  Generation in :mod:`repro.report.validation`.
"""

from repro import power_fit
from repro.machines.micro import shearsort
from repro.report import validation

from _util import rendered


def test_mesh_validation_report(benchmark):
    rows = benchmark.pedantic(rendered, args=("validation",),
                              rounds=1, iterations=1)[0][2]
    bc_ratios = [float(r[3]) for r in rows]
    sg_ratios = [float(r[6]) for r in rows]
    ss_ratios = [float(r[9]) for r in rows]
    assert max(bc_ratios) / min(bc_ratios) < 2.0
    assert max(sg_ratios) / min(sg_ratios) < 2.0
    assert ss_ratios[-1] > ss_ratios[0]  # the log-factor gap widens


def test_cube_validation_report(benchmark):
    rows = benchmark.pedantic(rendered, args=("validation",),
                              rounds=1, iterations=1)[1][2]
    assert all(r[3] == "exact" and r[6] == "exact" for r in rows)


def test_micro_shearsort_fit(benchmark):
    def run():
        times = [
            validation.micro_mesh_cost(lambda m: shearsort(m, "x"), n)
            for n in validation.SIZES
        ]
        return power_fit(validation.SIZES, times)
    fit = benchmark.pedantic(run, rounds=1, iterations=1)
    # sqrt(n) log n over this range fits ~ n^0.6-0.8.
    assert 0.5 < fit.exponent < 0.9


def test_micro_broadcast_speed(benchmark):
    from repro.machines.micro import broadcast_micro
    benchmark(lambda: validation.micro_mesh_cost(
        lambda m: broadcast_micro(m, "x", 0, 0), 256))
