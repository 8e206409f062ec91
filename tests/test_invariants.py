"""Cross-cutting invariants and failure injection.

Properties that tie several subsystems together: min/max duality,
envelope idempotence, machine-agnosticism, steady-state consistency with
far-future snapshots, and the documented failure modes of malformed input.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DegenerateSystemError,
    Motion,
    PiecewiseFunction,
    PointSystem,
    Polynomial,
    PolynomialFamily,
    collision_times,
    containment_intervals,
    envelope,
    envelope_serial,
    hull_membership_intervals,
    hypercube_machine,
    mesh_machine,
    pram_machine,
    random_system,
    serial_machine,
)
from repro.core.steady import steady_hull, steady_is_extreme_angular
from repro.kinetics.davenport_schinzel import extremal_sequence, is_ds_sequence
from repro.kinetics.motion import divergent_system

FAM1 = PolynomialFamily(1)
FAM2 = PolynomialFamily(2)

coeffs = st.lists(st.integers(-50, 50).map(float), min_size=2, max_size=3)


class TestDuality:
    """max{f_i} = -min{-f_i}: the envelope engine must respect it."""

    @given(st.lists(coeffs, min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_min_max_duality(self, rows):
        fns = [Polynomial(r) for r in rows]
        neg = [Polynomial([-c for c in r]) for r in rows]
        upper = envelope_serial(fns, FAM2, op="max")
        lower_neg = envelope_serial(neg, FAM2, op="min")
        for t in np.linspace(0.05, 20, 23):
            assert upper(t) == pytest.approx(-lower_neg(t), abs=1e-6)


class TestIdempotence:
    @given(st.lists(coeffs, min_size=2, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_envelope_of_envelope_pieces(self, rows):
        """Feeding the envelope its own pieces back returns it unchanged."""
        fns = [Polynomial(r) for r in rows]
        env = envelope_serial(fns, FAM2)
        again = envelope_serial(
            [PiecewiseFunction([p]) for p in env.pieces], FAM2
        )
        for t in np.linspace(0.05, 30, 31):
            assert again(t) == pytest.approx(env(t), abs=1e-6)


class TestMachineAgnosticism:
    """The four machine models must compute identical answers."""

    @pytest.mark.parametrize("seed", range(3))
    def test_envelope_same_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        fns = [Polynomial(rng.uniform(-10, 10, 3)) for _ in range(9)]
        outputs = []
        for mk in (mesh_machine, hypercube_machine, pram_machine):
            outputs.append(envelope(mk(64), fns, FAM2).labels())
        outputs.append(envelope(serial_machine(), fns, FAM2).labels())
        outputs.append(envelope_serial(fns, FAM2).labels())
        assert all(o == outputs[0] for o in outputs)

    def test_collision_times_same_everywhere(self):
        from repro.kinetics.motion import crossing_traffic
        system = crossing_traffic(8, seed=0)
        want = collision_times(None, system)
        for mk in (mesh_machine, hypercube_machine, pram_machine):
            np.testing.assert_allclose(collision_times(mk(16), system), want,
                                       atol=1e-9)


class TestSteadyConsistency:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_steady_hull_matches_far_future(self, seed):
        system = divergent_system(7, d=2, seed=seed)
        got = sorted(steady_hull(None, system))
        from repro.geometry import convex_hull

        # How far out "far future" is depends on the instance:
        # near-parallel leading directions join or leave the hull late
        # (divergent_system seed 155 joins after 60x the horizon, seed
        # 1414 leaves only after 10000x), so evaluate well past any of
        # that — hull membership at 1e6x matches the steady hull on a
        # full 0..10000 seed sweep.
        t = system.horizon() * 1e6
        want = sorted(convex_hull([tuple(p) for p in system.positions(t)]))
        assert got == want

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_angular_criterion_equals_hull_membership(self, seed):
        system = divergent_system(6, d=2, seed=seed)
        hull = set(steady_hull(None, system))
        for q in range(len(system)):
            assert steady_is_extreme_angular(None, system, q) == (q in hull)


class TestTransientSteadyHandshake:
    """The last piece of a transient solution is the steady answer."""

    @pytest.mark.parametrize("seed", range(3))
    def test_hull_membership_tail_matches_steady(self, seed):
        system = divergent_system(6, d=2, seed=seed + 3)
        intervals = hull_membership_intervals(None, system, query=0)
        eventually_extreme = bool(intervals) and math.isinf(intervals[-1][1])
        assert eventually_extreme == steady_is_extreme_angular(None, system, 0)


class TestDSConstructions:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
    @pytest.mark.parametrize("s", [1, 2])
    def test_extremal_sequences(self, n, s):
        from repro.kinetics import lambda_exact
        seq = extremal_sequence(n, s)
        assert is_ds_sequence(seq, s)
        assert len(seq) == lambda_exact(n, s)

    def test_extremal_rejects_large_s(self):
        with pytest.raises(ValueError):
            extremal_sequence(4, 3)

    def test_extremal_rejects_bad_n(self):
        with pytest.raises(ValueError):
            extremal_sequence(0, 1)


class TestFailureInjection:
    def test_coincident_starts_rejected_everywhere(self):
        with pytest.raises(DegenerateSystemError):
            PointSystem([
                Motion.linear([1.0, 1.0], [0.0, 1.0]),
                Motion.linear([1.0, 1.0], [1.0, 0.0]),
            ])

    def test_coincident_starts_name_the_first_pair_in_lexsort_order(self):
        # Two coincident pairs (within the 1e-12 absolute tolerance): the
        # message names the one whose starts sort first, (1, 5).
        with pytest.raises(DegenerateSystemError, match=re.escape(
                "points 1 and 3 share the initial position [1. 5.]")):
            PointSystem([
                Motion.linear([2.0, 0.0], [0.0, 1.0]),
                Motion.linear([1.0, 5.0], [1.0, 0.0]),
                Motion.linear([2.0, 1e-13], [1.0, 1.0]),
                Motion.linear([1.0, 5.0 + 1e-13], [0.0, -1.0]),
            ])

    def test_empty_envelope_inputs(self):
        assert len(envelope_serial([], FAM1)) == 0
        assert len(envelope(mesh_machine(4), [], FAM1)) == 0

    def test_containment_with_zero_box(self):
        """A zero-size box is legal: the system fits only when coincident
        (never, given distinct trajectories)."""
        system = random_system(4, d=2, k=1, seed=5)
        intervals = containment_intervals(None, system, [0.0, 0.0])
        assert intervals == []

    def test_duplicate_functions_in_envelope(self):
        f = Polynomial([2.0, 1.0])
        env = envelope_serial([f, f, f], FAM1)
        assert len(env) == 1
        for t in (0.0, 3.0):
            assert env(t) == pytest.approx(f(t))

    def test_constant_functions_tie(self):
        """Everywhere-equal distinct-object constants: one winner, fused."""
        env = envelope_serial(
            [Polynomial([5.0]), Polynomial([5.0])], PolynomialFamily(0)
        )
        assert len(env) == 1

    def test_machine_size_one_mesh(self):
        from repro.machines.topology import MeshTopology
        t = MeshTopology(1)
        assert t.diameter == 0.0

    def test_hull_membership_mixed_dims_rejected(self):
        with pytest.raises(DegenerateSystemError):
            hull_membership_intervals(None, random_system(4, d=3, seed=0))
