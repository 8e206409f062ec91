"""Sections 1 and 6 — native algorithms vs direct PRAM simulation.

Native envelope construction must beat direct Chandran–Mount simulation on
both machines, with a widening gap.  Generation in
:mod:`repro.report.section6`.
"""

from repro import envelope, mesh_machine
from repro.baselines.pram import pram_envelope, simulation_cost
from repro.report import section6

from _util import rendered


def _check(rows):
    penalties = [float(r[5][:-1]) for r in rows]
    assert all(p > 1.0 for p in penalties), "native must win everywhere"
    assert penalties[-1] > penalties[0], "the gap must widen with n"


def test_sec6_mesh_report(benchmark):
    _check(benchmark.pedantic(rendered, args=("section6",),
                              rounds=1, iterations=1)[0][2])


def test_sec6_hypercube_report(benchmark):
    _check(benchmark.pedantic(rendered, args=("section6",),
                              rounds=1, iterations=1)[1][2])


def test_sec6_measured_pram_steps(benchmark):
    """Conservative variant: even charging our engine's own measured PRAM
    step count (Theta(log^2 n), larger than Chandran–Mount's Theta(log n)),
    the native mesh algorithm still wins at scale."""
    def run():
        n = 1024
        fns = section6.curves(n)
        env, steps = pram_envelope(fns, section6.FAMILY)
        native = mesh_machine(n)
        envelope(native, fns, section6.FAMILY)
        sim = simulation_cost(mesh_machine(n), n, pram_steps=steps)
        return native.metrics.time, sim
    native_t, sim_t = benchmark.pedantic(run, rounds=1, iterations=1)
    assert native_t < sim_t
