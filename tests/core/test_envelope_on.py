"""``envelope`` on a ``MachineGroup`` and the replayed combine charges.

The envelope's pieces depend on the curves alone; the machine decides only
the charges.  ``envelope`` on a ``MachineGroup`` builds the Theorem 3.2
combine tree once and charges every member from the recorded combine
shapes, and the fast combine replays a memoised per-shape charge
schedule.  These tests pin both against the independent runs they
replace: a solo ``envelope`` per machine, and the reference array path
(``set_fast_combine(False)``).
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.envelope  # noqa: F401  (register the submodule)
from repro.core.envelope import combine_pairwise, envelope
from repro.core.family import PolynomialFamily
from repro.errors import OperationContractError
from repro.kinetics.piecewise import INF, Piece, PiecewiseFunction
from repro.kinetics.polynomial import Polynomial
from repro.machines import machine as machine_mod
from repro.machines.machine import (
    MachineGroup,
    ccc_machine,
    hypercube_machine,
    mesh_machine,
    pram_machine,
    serial_machine,
    shuffle_exchange_machine,
)
from repro.trace.golden import structural_spans
from repro.trace.tracer import Tracer
from repro.verify.compare import sim_snapshot
from repro.verify.generators import CURVE_KINDS, make_curves

# repro.core re-exports the `envelope` function under the module's name.
envelope_module = sys.modules["repro.core.envelope"]

MACHINES = {
    "mesh": lambda: mesh_machine(64),
    "mesh-row-major": lambda: mesh_machine(64, "row-major"),
    "hypercube": lambda: hypercube_machine(64),
    "ccc": lambda: ccc_machine(64),
    "shuffle-exchange": lambda: shuffle_exchange_machine(64),
    "pram": lambda: pram_machine(64),
    "serial": serial_machine,
}


@pytest.fixture
def array_combine():
    prev = envelope_module.set_fast_combine(False)
    try:
        yield
    finally:
        envelope_module.set_fast_combine(prev)


def _pieces(F):
    return [(p.lo, p.hi, p.fn, p.label) for p in F.pieces]


def _sim(machine):
    """Simulated snapshot, with the phase keys' insertion order kept."""
    snap = sim_snapshot(machine.metrics)
    snap["phases"] = list(snap["phases"].items())
    return snap


def _partial(fns, seed):
    """Theorem 3.4 inputs: each curve on two intervals with a gap."""
    rng = np.random.default_rng(seed)
    out = []
    for i, fn in enumerate(fns):
        a = float(rng.integers(-16, 8)) / 2
        b = a + float(rng.integers(1, 8)) / 2
        c = b + float(rng.integers(1, 6)) / 2
        out.append(PiecewiseFunction(
            [Piece(a, b, fn, i), Piece(c, INF, fn, i)]))
    return out


def _span_names(forest):
    for span in forest:
        yield span["name"]
        yield from _span_names(span["children"])


def _traced(run):
    """``(run(), structural span forest)`` under an installed tracer."""
    with Tracer("t") as tracer:
        result = run()
    return result, structural_spans(tracer.to_dicts())


# ----------------------------------------------------------------------
# Oracle coverage: the toggle really selects the reference array path
# ----------------------------------------------------------------------
class TestOracleCoverage:
    # Op spans only the array path opens ("pack" also names a phase).
    ORACLE_SPANS = {"bitonic_merge", "unpack_lists", "parallel_prefix"}

    def _names(self, run):
        return set(_span_names(_traced(run)[1]))

    # Each test runs on one machine and on a two-member group; the keys
    # name the entry points the two cases once went through.
    TARGETS = {
        "envelope": lambda: mesh_machine(16),
        "envelope_on": lambda: MachineGroup((mesh_machine(16),
                                             hypercube_machine(16))),
    }

    def test_array_path_runs_the_ops_when_fast_combine_is_off(
            self, array_combine):
        fns = make_curves("random", seed=3, n=6, s=2)
        fam = PolynomialFamily(2)
        for target in self.TARGETS.values():
            names = self._names(lambda: envelope(target(), fns, fam))
            assert self.ORACLE_SPANS <= names

    @pytest.mark.parametrize("entry", sorted(TARGETS))
    def test_fast_path_opens_no_op_spans(self, entry):
        fns = make_curves("random", seed=3, n=6, s=2)
        fam = PolynomialFamily(2)
        names = self._names(
            lambda: envelope(self.TARGETS[entry](), fns, fam))
        assert not self.ORACLE_SPANS & names
        assert {"envelope", "merge", "scan", "cross", "pack"} <= names

    def test_array_path_costs_each_machine_separately(self, array_combine):
        fns = make_curves("random", seed=5, n=8, s=2)
        fam = PolynomialFamily(2)
        _, forest = _traced(lambda: envelope(
            MachineGroup((mesh_machine(16), serial_machine())), fns, fam))
        assert [s["name"] for s in forest] == ["envelope", "envelope"]
        for root in forest:
            assert "bitonic_merge" in set(_span_names([root]))


# ----------------------------------------------------------------------
# envelope on a group == one solo envelope run per member
# ----------------------------------------------------------------------
def _assert_parity(fns, s, op, traced=False):
    """Each member of one group ``envelope`` call matches its solo run."""
    fam = PolynomialFamily(s)
    run = _traced if traced else (lambda f: (f(), None))
    machines = [mk() for mk in MACHINES.values()]
    shared, forest = run(lambda: envelope(MachineGroup(machines), fns, fam,
                                          op=op))
    for i, (name, mk) in enumerate(MACHINES.items()):
        ref = mk()
        out, solo_forest = run(lambda: envelope(ref, fns, fam, op=op))
        assert _pieces(shared) == _pieces(out), name
        assert _sim(machines[i]) == _sim(ref), name
        if traced:
            assert [forest[i]] == solo_forest, name


class TestEnvelopeOnParity:
    """Group runs against solo runs (the class name predates the fold of
    ``envelope_on`` into ``envelope``; it keeps the test ids stable)."""

    @pytest.mark.parametrize("kind", sorted(CURVE_KINDS))
    @pytest.mark.parametrize("op", ["min", "max"])
    def test_total_inputs_every_generator_kind(self, kind, op):
        _assert_parity(make_curves(kind, seed=11, n=9, s=2), 2, op)

    @pytest.mark.parametrize("kind", sorted(CURVE_KINDS))
    @pytest.mark.parametrize("op", ["min", "max"])
    def test_partial_inputs_every_generator_kind(self, kind, op):
        fns = _partial(make_curves(kind, seed=12, n=7, s=2), seed=7)
        _assert_parity(fns, 2, op)

    @pytest.mark.parametrize("partial", [False, True], ids=["total", "partial"])
    @pytest.mark.parametrize("op", ["min", "max"])
    def test_traced_spans_match_solo_runs(self, op, partial):
        fns = make_curves("tie", seed=4, n=6, s=2)
        if partial:
            fns = _partial(fns, seed=4)
        _assert_parity(fns, 2, op, traced=True)

    def test_single_and_empty_inputs(self):
        fam = PolynomialFamily(1)
        for fns in ([], [Polynomial([1.0, 2.0])]):
            machines = [mk() for mk in MACHINES.values()]
            got = envelope(MachineGroup(machines), fns, fam)
            for mk, machine in zip(MACHINES.values(), machines):
                ref = mk()
                assert _pieces(got) == _pieces(envelope(ref, fns, fam))
                assert _sim(machine) == _sim(ref)

    def test_empty_partial_operand_charges_nothing(self):
        fam = PolynomialFamily(1)
        fns = [PiecewiseFunction.empty(),
               PiecewiseFunction([Piece(0.0, 1.0, Polynomial([1.0]), "a")]),
               PiecewiseFunction([Piece(2.0, 3.0, Polynomial([2.0]), "b")])]
        machines = [mk() for mk in MACHINES.values()]
        got = envelope(MachineGroup(machines), fns, fam)
        for mk, machine in zip(MACHINES.values(), machines):
            ref = mk()
            assert _pieces(got) == _pieces(envelope(ref, fns, fam))
            assert _sim(machine) == _sim(ref)

    def test_needs_a_machine(self):
        with pytest.raises(OperationContractError):
            envelope(MachineGroup(()), [Polynomial([1.0])],
                     PolynomialFamily(1))


# ----------------------------------------------------------------------
# Schedule replay == the reference array path's charges
# ----------------------------------------------------------------------
def _pw(spec, label):
    """A partial function of lines from ``(gap, length, a, b)`` pieces."""
    pieces = []
    t = -8.0
    for gap, length, a, b in spec:
        lo = t + gap
        hi = lo + length
        pieces.append(Piece(lo, hi, Polynomial([a, b]), label))
        t = hi
    return PiecewiseFunction(pieces)


_quarter = st.integers(-24, 24).map(lambda k: k / 4)
_piece = st.tuples(st.integers(0, 3).map(float), st.integers(1, 6).map(float),
                   _quarter, _quarter)


class TestReplayMatchesReferencePath:
    @given(
        f=st.lists(_piece, min_size=1, max_size=12),
        g=st.lists(_piece, min_size=1, max_size=12),
        op=st.sampled_from(["min", "max", "sum", "diff"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fast_combine_charges_equal_array_charges(self, f, g, op):
        F, G = _pw(f, "f"), _pw(g, "g")
        fam = PolynomialFamily(1)
        for name, mk in MACHINES.items():
            runs = {}
            for fast in (True, False):
                prev = envelope_module.set_fast_combine(fast)
                try:
                    m = mk()
                    out = combine_pairwise(m, F, G, fam, op)
                    # Nested: unlabelled charges go to the open phase.
                    with m.phase("outer"):
                        combine_pairwise(m, G, F, fam, op)
                finally:
                    envelope_module.set_fast_combine(prev)
                runs[fast] = (_pieces(out), _sim(m))
            assert runs[True] == runs[False], name

    @pytest.mark.parametrize("kind", ["random", "tie"])
    @pytest.mark.parametrize("partial", [False, True], ids=["total", "partial"])
    @pytest.mark.parametrize("op", ["min", "max"])
    def test_whole_tree_charges_equal_array_charges(self, op, partial, kind):
        # The level-wise charges of the full combine tree, not one combine.
        fns = make_curves(kind, seed=21, n=11, s=2)
        if partial:
            fns = _partial(fns, seed=21)
        fam = PolynomialFamily(2)
        for name, mk in MACHINES.items():
            runs = {}
            for fast in (True, False):
                prev = envelope_module.set_fast_combine(fast)
                try:
                    m = mk()
                    out = envelope(m, fns, fam, op=op)
                    # Nested: the combines' unlabelled charges must not
                    # land in the caller's open phase.
                    with m.phase("outer"):
                        envelope(m, fns[::-1], fam, op=op)
                finally:
                    envelope_module.set_fast_combine(prev)
                runs[fast] = (_pieces(out), _sim(m))
            assert runs[True] == runs[False], name

    def test_untraced_levels_build_no_sub_machine_once_recorded(
            self, monkeypatch):
        fns = make_curves("random", seed=8, n=12, s=2)
        fam = PolynomialFamily(2)
        envelope(MachineGroup(mk() for mk in MACHINES.values()), fns, fam)
        built = []
        real = envelope_module._substring_machine
        monkeypatch.setattr(envelope_module, "_substring_machine",
                            lambda m, length: built.append(length)
                            or real(m, length))
        envelope(MachineGroup(mk() for mk in MACHINES.values()), fns, fam)
        assert built == []

    @pytest.mark.parametrize("order", [1, -1], ids=["ab", "ba"])
    def test_level_tie_charges_the_first_slowest_combine(self, order):
        # Two combines of one level with equal time but different phase
        # splits: the level charges the first, as max() over sub-machines.
        level = [(16, (16, 4, 1, 1, False)), (16, (16, 4, 4, 3, True))]
        level = level[::order]
        times = set()
        for length, shape in level:
            sub = envelope_module._substring_machine(mesh_machine(64), length)
            sub.replay(envelope_module._combine_charges, 2, *shape)
            times.add(sub.metrics.time)
        assert len(times) == 1
        fast, via_subs = mesh_machine(64), mesh_machine(64)
        envelope_module._charge_tree(fast, [level], 2)
        envelope_module._charge_tree_traced(via_subs, [level], 2)
        assert _sim(fast) == _sim(via_subs)

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_substring_sig_is_the_sub_machines(self, name):
        machine = MACHINES[name]()
        for length in (1, 3, 4, 17, 64, 100, 4096):
            sub = envelope_module._substring_machine(machine, length)
            assert (envelope_module._substring_sig(machine, length)
                    == sub._sig), length

    def test_memo_stays_bounded_over_many_shapes(self):
        cap = machine_mod._CHARGE_CACHE_CAP
        shapes = [(s, max_per) for s in range(cap // 8 + 8)
                  for max_per in range(8)]
        assert len(shapes) > cap
        ref = mesh_machine(4)
        for i, (s, max_per) in enumerate(shapes):
            m = mesh_machine(4)
            m.replay(envelope_module._combine_charges, s, 8, 4, 16,
                     max_per, False)
            assert len(machine_mod._CHARGE_CACHE) <= cap
            if i in (0, cap // 2, len(shapes) - 1):
                # A memo entry, fresh or recomputed after a drop, charges
                # exactly what the schedule's own calls charge.
                ref.reset()
                list(envelope_module._combine_charges(
                    ref, s, 8, 4, 16, max_per, False))
                for field in ("time", "rounds", "comm_time", "comm_rounds",
                              "local_rounds"):
                    assert (getattr(m.metrics, field)
                            == getattr(ref.metrics, field)), field
