"""``MachineGroup``: one run, every member charged what a solo run charges.

The machine decides only the charges, never the answer, so a problem
instance run once on a group must leave each member's simulated metrics
(phase keys and their order included) equal to a solo run on a fresh
machine of the same kind, and return the lead member's solo result.
These tests pin that for every Table 2-4 entry point, on groups that mix
mesh, hypercube, randomized hypercube, CCC, shuffle-exchange, PRAM and
serial members, with tied, near-degenerate, duplicate and padded inputs.
"""

import numpy as np
import pytest

from repro.baselines.pram import crcw_round_cost
from repro.core.envelope import combine_pairwise, envelope, envelope_serial
from repro.core.family import PolynomialFamily
from repro.core.hull_membership import all_hull_membership_intervals
from repro.errors import OperationContractError, ReproError
from repro.geometry.closest_pair import closest_pair_parallel
from repro.geometry.convex_hull import convex_hull_parallel
from repro.geometry.rectangle import enclosing_rectangle_parallel
from repro.kinetics.motion import divergent_system
from repro.kinetics.piecewise import PiecewiseFunction
from repro.machines import MachineGroup
from repro.machines.machine import (
    ccc_machine,
    hypercube_machine,
    mesh_machine,
    pram_machine,
    serial_machine,
    shuffle_exchange_machine,
)
from repro.ops import bitonic_sort
from repro.report import table2, table3, table4
from repro.trace.tracer import Tracer
from repro.verify.compare import sim_snapshot
from repro.verify.generators import make_curves, make_system

N_PE = 64

KINDS = {
    "mesh": lambda: mesh_machine(N_PE),
    "hypercube": lambda: hypercube_machine(N_PE),
    "randomized": lambda: hypercube_machine(N_PE, randomized=True),
    "ccc": lambda: ccc_machine(N_PE),
    "shuffle-exchange": lambda: shuffle_exchange_machine(N_PE),
    "pram": lambda: pram_machine(N_PE),
    "serial": serial_machine,
}

#: Member lists: a deterministic lead with everything else behind it, a
#: randomized lead ahead of deterministic members, and randomized only.
MIXES = {
    "mixed": ["mesh", "hypercube", "randomized", "ccc", "shuffle-exchange",
              "randomized", "pram", "serial"],
    "randomized-lead": ["randomized", "mesh", "randomized", "hypercube"],
    "randomized-only": ["randomized", "randomized"],
}


def _sim(machine):
    """Simulated snapshot, with the phase keys' insertion order kept."""
    snap = sim_snapshot(machine.metrics)
    snap["phases"] = list(snap["phases"].items())
    return snap


def _canon(out):
    """Exact structural form of an entry point's result."""
    if isinstance(out, PiecewiseFunction):
        return ("pw", [(p.lo, p.hi, p.fn, p.label) for p in out.pieces])
    if isinstance(out, np.ndarray):
        return ("array", out.tolist())
    if isinstance(out, (list, tuple)):
        return (type(out).__name__, [_canon(v) for v in out])
    slots = getattr(type(out), "__slots__", None)
    if slots:  # RectangleSupport, SteadyValue
        return (type(out).__name__,
                [_canon(getattr(out, name)) for name in slots])
    return out


def _outcome(run, machine):
    try:
        return _canon(run(machine))
    except ReproError as exc:
        return ("raises", type(exc))


def assert_group_parity(run, mix):
    """``run`` once on a group of ``mix`` equals solo runs per member."""
    group = MachineGroup(KINDS[k]() for k in mix)
    got = _outcome(run, group)
    for kind, member in zip(mix, group.members):
        solo = KINDS[kind]()
        expected = _outcome(run, solo)
        assert _sim(member) == _sim(solo), kind
        assert member._rand_calls == solo._rand_calls, kind
        if member is group.members[0]:
            assert got == expected


def _points_with_duplicates():
    return [(float(i % 3), float(i % 2)) for i in range(12)]


# ----------------------------------------------------------------------
# The report entry points
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("fast_combine_mode")
@pytest.mark.parametrize("mix", ["mixed", "randomized-lead"])
@pytest.mark.parametrize("problem", list(table2.PROBLEMS))
def test_table2_problems(problem, mix):
    make_system, run, _ = table2.PROBLEMS[problem]
    system = make_system(table2.SIZES[problem][0])
    assert_group_parity(lambda m: run(m, system), MIXES[mix])


@pytest.mark.parametrize("mix", list(MIXES))
@pytest.mark.parametrize("name", list(table3.PROBLEMS))
def test_table3_problems(name, mix):
    fn = table3.PROBLEMS[name]
    for system in (divergent_system(16, d=2, seed=16),
                   divergent_system(11, d=2, seed=3),
                   make_system("symmetric", 5, n=9)):
        assert_group_parity(lambda m: fn(m, system), MIXES[mix])


TABLE4_INPUTS = {
    "random-13": table4.rand_points(13, seed=2),
    "circle-13": table4.circle(13, seed=13),
    "duplicates-12": _points_with_duplicates(),
    "duplicates-padded": [(float(i % 4), float(i % 3)) for i in range(21)]
    + [(0.0, 0.0)] * 3,
}


@pytest.mark.usefixtures("plan_mode")
@pytest.mark.parametrize("mix", list(MIXES))
@pytest.mark.parametrize("points", list(TABLE4_INPUTS))
@pytest.mark.parametrize("fn", [closest_pair_parallel, convex_hull_parallel,
                                enclosing_rectangle_parallel],
                         ids=["closest-pair", "convex-hull", "rectangle"])
def test_table4_algorithms(fn, points, mix):
    pts = TABLE4_INPUTS[points]
    assert_group_parity(lambda m: fn(m, pts), MIXES[mix])


@pytest.mark.usefixtures("fast_combine_mode")
@pytest.mark.parametrize("kind", ["tie", "near_degenerate"])
@pytest.mark.parametrize("op", ["min", "max"])
def test_envelope_and_combine_on_tied_curves(kind, op):
    family = PolynomialFamily(2)
    for seed, n in ((0, 9), (1, 16)):
        fns = make_curves(kind, seed, n=n)
        assert_group_parity(lambda m: envelope(m, fns, family, op=op),
                            MIXES["mixed"])
        F = envelope_serial(fns[: n // 2], family, op=op)
        G = envelope_serial(fns[n // 2:], family, op=op)
        assert_group_parity(
            lambda m: combine_pairwise(m, F, G, family, op), MIXES["mixed"])


def test_the_reports_are_the_members_solo_costs():
    """``measure``'s one-machine form is the group path's one-member case."""
    fn = table3.PROBLEMS["hull vertices (5.4)"]
    factories = (mesh_machine, hypercube_machine,
                 lambda n: hypercube_machine(n, randomized=True))
    together = table3.measure_on(fn, factories, table3._systems())
    assert together == [table3.measure(fn, f) for f in factories]


# ----------------------------------------------------------------------
# Group mechanics
# ----------------------------------------------------------------------
def test_randomized_members_are_charged_in_member_order():
    data = np.random.default_rng(0).uniform(size=64)
    group = MachineGroup(KINDS[k]() for k in MIXES["randomized-lead"])
    for _ in range(3):
        (out,), _ = bitonic_sort(group, data)
        assert out.tolist() == sorted(data.tolist())
    assert [m._rand_calls for m in group.members] == [3, 0, 3, 0]
    a, _, b, _ = group.members
    assert _sim(a) == _sim(b)


def test_segmented_sort_stays_deterministic_on_randomized_members():
    data = np.random.default_rng(1).uniform(size=64)
    group = MachineGroup([hypercube_machine(N_PE, randomized=True),
                          hypercube_machine(N_PE)])
    bitonic_sort(group, data, segment_size=16)
    rnd, det = group.members
    assert rnd._rand_calls == 0
    assert _sim(rnd) == _sim(det)


def test_phases_fan_out_and_host_time_goes_to_the_lead():
    group = MachineGroup([mesh_machine(16), hypercube_machine(16)])
    lead, other = group.members
    assert group.metrics is lead.metrics
    with group.phase("outer"):
        group.local(16)
        with group.phase("inner"):
            group.exchange(16, 3)
    assert list(lead.metrics.phases) == list(other.metrics.phases) \
        == ["outer", "inner"]
    assert set(lead.metrics.wall_phases) == {"outer", "inner"}
    assert not other.metrics.wall_phases and other.metrics.wall_time == 0.0


def test_phase_spans_open_per_member_driver_spans_on_the_lead():
    group = MachineGroup([mesh_machine(N_PE), hypercube_machine(N_PE)])
    with Tracer() as tracer:
        convex_hull_parallel(group, table4.rand_points(16))
    names = []

    def walk(span):
        names.append(span.name)
        for child in span.children:
            walk(child)

    for root in tracer.roots:
        walk(root)
    assert names.count("sort") == 2  # one phase span per member
    assert names.count("bitonic_sort") == 1  # op span: the lead only


@pytest.mark.parametrize("members", [[], [MachineGroup([mesh_machine(4)])],
                                     ["mesh"]],
                         ids=["empty", "nested", "not-a-machine"])
def test_group_members_must_be_machines(members):
    with pytest.raises(OperationContractError):
        MachineGroup(members)


def test_single_machine_entry_points_refuse_a_group():
    group = MachineGroup([mesh_machine(N_PE), hypercube_machine(N_PE)])
    with pytest.raises(OperationContractError):
        all_hull_membership_intervals(group, divergent_system(4, d=2, seed=1))
    with pytest.raises(OperationContractError):
        crcw_round_cost(group, 16)
    with pytest.raises(OperationContractError):
        group.topology  # noqa: B018

