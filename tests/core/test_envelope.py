"""Tests for repro.core.envelope — Lemma 3.1, Theorems 3.2 and 3.4."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.envelope import (
    combine_pairwise,
    combine_pairwise_serial,
    envelope,
    envelope_serial,
    threshold_indicator,
)
from repro.core.family import PolynomialFamily
from repro.errors import OperationContractError
from repro.kinetics.davenport_schinzel import lambda_exact
from repro.kinetics.piecewise import INF, Piece, PiecewiseFunction
from repro.kinetics.polynomial import Polynomial
from repro.machines import (
    hypercube_machine,
    mesh_machine,
    pram_machine,
    serial_machine,
)

FAM1 = PolynomialFamily(1)
FAM2 = PolynomialFamily(2)
FAM3 = PolynomialFamily(3)


def lines(*pairs):
    """Helper: linear curves a + b t."""
    return [Polynomial([a, b]) for a, b in pairs]


def assert_is_envelope(env, fns, op="min"):
    pyop = min if op == "min" else max
    assert env.check_envelope_of(fns, op=pyop), f"not the {op} envelope: {env}"


class TestSerialPairwise:
    def test_two_crossing_lines(self):
        f, g = lines((0.0, 1.0), (4.0, -1.0))  # cross at t=2
        env = combine_pairwise_serial(
            PiecewiseFunction.total(f, 0), PiecewiseFunction.total(g, 1), FAM1
        )
        assert len(env) == 2
        assert env.labels() == [0, 1]
        assert env[0].hi == pytest.approx(2.0)
        assert_is_envelope(env, [f, g])

    def test_max_envelope(self):
        f, g = lines((0.0, 1.0), (4.0, -1.0))
        env = combine_pairwise_serial(
            PiecewiseFunction.total(f, 0), PiecewiseFunction.total(g, 1),
            FAM1, op="max",
        )
        assert env.labels() == [1, 0]
        assert_is_envelope(env, [f, g], op="max")

    def test_non_crossing(self):
        f, g = lines((0.0, 1.0), (5.0, 1.0))
        env = combine_pairwise_serial(
            PiecewiseFunction.total(f, 0), PiecewiseFunction.total(g, 1), FAM1
        )
        assert len(env) == 1 and env[0].label == 0

    def test_identical_functions(self):
        f = Polynomial([1.0, 2.0])
        env = combine_pairwise_serial(
            PiecewiseFunction.total(f, 0), PiecewiseFunction.total(f, 1), FAM1
        )
        assert len(env) == 1

    def test_parabola_vs_line_two_pieces_bound(self):
        # s=2: min of two curves has at most lambda(2,2)=3 pieces.
        f = Polynomial([4.0, -4.0, 1.0])  # (t-2)^2
        g = Polynomial([1.0])
        env = combine_pairwise_serial(
            PiecewiseFunction.total(f, 0), PiecewiseFunction.total(g, 1), FAM2
        )
        assert len(env) == 3
        # The parabola starts at 4 > 1, dips below on [1,3], rises again.
        assert env.labels() == [1, 0, 1]
        assert_is_envelope(env, [f, g])

    def test_empty_operands(self):
        f = PiecewiseFunction.total(Polynomial([1.0]), 0)
        e = PiecewiseFunction.empty()
        assert combine_pairwise_serial(f, e, FAM1).labels() == [0]
        assert combine_pairwise_serial(e, f, FAM1).labels() == [0]

    def test_partial_functions_with_gap(self):
        # f on [0,2] and [5,inf); g on [1,6]. Min must track who is defined.
        f = PiecewiseFunction([
            Piece(0.0, 2.0, Polynomial([10.0]), "f"),
            Piece(5.0, INF, Polynomial([0.0]), "f"),
        ])
        g = PiecewiseFunction([Piece(1.0, 6.0, Polynomial([5.0]), "g")])
        env = combine_pairwise_serial(f, g, FAM1)
        assert env(0.5) == 10.0   # only f defined
        assert env(1.5) == 5.0    # both defined, g smaller
        assert env(3.0) == 5.0    # only g defined (f gap)
        assert env(5.5) == 0.0    # both, f smaller
        assert env(100.0) == 0.0

    def test_rejects_unknown_op(self):
        f = PiecewiseFunction.total(Polynomial([1.0]), 0)
        with pytest.raises(OperationContractError):
            combine_pairwise_serial(f, f, FAM1, op="median")


class TestSerialEnvelope:
    def test_three_curve_figure4(self):
        """Figure 4: three curves, envelope pieces (g, [0,a]); (h, [a,b]); (f, [b,inf))."""
        g = Polynomial([1.0, 0.5])
        h = Polynomial([2.0, 0.0, 0.1])
        f = Polynomial([12.0, -1.0, 0.05])
        fam = PolynomialFamily(2)
        env = envelope_serial([g, h, f], fam, labels=["g", "h", "f"])
        assert_is_envelope(env, [g, h, f])

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("k", [1, 2])
    def test_random_polynomials(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        fns = [Polynomial(rng.uniform(-10, 10, k + 1)) for _ in range(n)]
        fam = PolynomialFamily(k)
        env = envelope_serial(fns, fam)
        assert_is_envelope(env, fns)

    def test_piece_count_respects_lambda_bound_s1(self):
        """Lemma 2.2: lines (s=1) -> at most lambda(n,1) = n pieces."""
        rng = np.random.default_rng(7)
        for trial in range(5):
            fns = [Polynomial(rng.uniform(-10, 10, 2)) for _ in range(10)]
            env = envelope_serial(fns, FAM1)
            assert len(env) <= lambda_exact(10, 1)

    def test_piece_count_respects_lambda_bound_s2(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            fns = [Polynomial(rng.uniform(-5, 5, 3)) for _ in range(8)]
            env = envelope_serial(fns, FAM2)
            assert len(env) <= lambda_exact(8, 2)  # 2n-1 = 15

    def test_envelope_covers_domain(self):
        """Total functions -> the envelope is defined everywhere on [0,inf)."""
        fns = lines((1, 1), (2, -1), (0, 0.5))
        env = envelope_serial(fns, FAM1)
        assert env[0].lo == 0.0
        assert math.isinf(env[-1].hi)
        for a, b in zip(env.pieces, env.pieces[1:]):
            assert a.hi == pytest.approx(b.lo)

    def test_single_function(self):
        env = envelope_serial([Polynomial([3.0])], FAM1)
        assert len(env) == 1

    def test_empty_input(self):
        assert len(envelope_serial([], FAM1)) == 0

    @given(st.lists(
        st.tuples(st.floats(-20, 20), st.floats(-5, 5)),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=60, deadline=None)
    def test_property_envelope_of_lines(self, coeffs):
        fns = [Polynomial([a, b]) for a, b in coeffs]
        env = envelope_serial(fns, FAM1)
        assert len(env) <= len(fns)  # lambda(n,1) = n
        assert env.check_envelope_of(fns, samples_per_piece=5, rtol=1e-5,
                                     atol=1e-5)


@pytest.mark.usefixtures("fast_combine_mode")
class TestMachinePairwise:
    """Runs under both envelope execution strategies (fast/array)."""

    @pytest.mark.parametrize("mk", [mesh_machine, hypercube_machine,
                                    pram_machine],
                             ids=["mesh", "hypercube", "pram"])
    def test_agrees_with_serial(self, mk):
        rng = np.random.default_rng(3)
        f_fns = [Polynomial(rng.uniform(-8, 8, 3)) for _ in range(4)]
        g_fns = [Polynomial(rng.uniform(-8, 8, 3)) for _ in range(4)]
        F = envelope_serial(f_fns, FAM2, labels=[f"f{i}" for i in range(4)])
        G = envelope_serial(g_fns, FAM2, labels=[f"g{i}" for i in range(4)])
        machine = mk(16)
        got = combine_pairwise(machine, F, G, FAM2)
        want = combine_pairwise_serial(F, G, FAM2)
        assert got.labels() == want.labels()
        for a, b in zip(got.pieces, want.pieces):
            assert a.lo == pytest.approx(b.lo, abs=1e-6)
            assert machine.metrics.time > 0

    def test_partial_functions_on_machine(self):
        f = PiecewiseFunction([
            Piece(0.0, 2.0, Polynomial([10.0]), "f"),
            Piece(5.0, INF, Polynomial([0.0]), "f"),
        ])
        g = PiecewiseFunction([Piece(1.0, 6.0, Polynomial([5.0]), "g")])
        got = combine_pairwise(mesh_machine(16), f, g, FAM1)
        want = combine_pairwise_serial(f, g, FAM1)
        assert got.labels() == want.labels()
        for t in (0.5, 1.5, 3.0, 5.5, 50.0):
            assert got(t) == pytest.approx(want(t))

    @pytest.mark.parametrize("op", ["min", "max"])
    def test_same_is_asked_once_per_distinct_pair(self, op, monkeypatch):
        # Step 4 needs a family.same verdict on every nondegenerate
        # two-sided gap; the crossing prefetch asks it once per distinct
        # curve pair and hands the verdicts on.  F's middle piece meets
        # G's repeated curve on two gaps.  F and G share no curve object,
        # so the calls on two distinct objects are exactly Step 4's (the
        # output fusion asks same only of equal labels, here one curve).
        fam = PolynomialFamily(2)
        F = PiecewiseFunction([
            Piece(0.0, 2.0, Polynomial([3.0, -1.0]), "f0"),
            Piece(2.0, 9.0, Polynomial([1.0, 0.5]), "f1"),
            Piece(9.0, INF, Polynomial([0.0, 0.0, 0.1]), "f2"),
        ])
        g = Polynomial([2.0, 0.2, -0.01])
        G = PiecewiseFunction([
            Piece(0.0, 3.0, g, "g"),
            Piece(3.0, 5.0, Polynomial([1.0, 0.5]), "g1"),
            Piece(5.0, 12.0, g, "g"),
        ])
        calls = []
        same = fam.same

        def spy(f, h):
            if f is not h:
                calls.append((id(f), id(h)))
            return same(f, h)

        monkeypatch.setattr(fam, "same", spy)
        combine_pairwise(mesh_machine(16), F, G, fam, op=op)
        assert len(calls) >= 4
        assert len(calls) == len(set(calls))


@pytest.mark.usefixtures("fast_combine_mode")
class TestMachineEnvelope:
    """Runs under both envelope execution strategies (fast/array)."""

    @pytest.mark.parametrize("mk", [mesh_machine, hypercube_machine,
                                    serial_machine],
                             ids=["mesh", "hypercube", "serial"])
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_agrees_with_serial_oracle(self, mk, n):
        rng = np.random.default_rng(n)
        fns = [Polynomial(rng.uniform(-10, 10, 3)) for _ in range(n)]
        machine = mk(64) if mk is not serial_machine else mk()
        got = envelope(machine, fns, FAM2)
        want = envelope_serial(fns, FAM2)
        assert got.labels() == want.labels()
        assert_is_envelope(got, fns)

    def test_max_envelope_on_machine(self):
        fns = lines((0, 1), (10, -1), (3, 0))
        got = envelope(mesh_machine(16), fns, FAM1, op="max")
        assert_is_envelope(got, fns, op="max")

    def test_mesh_time_scales_like_sqrt_lambda(self):
        """Theorem 3.2: mesh envelope time ~ sqrt(lambda(n,s)) ~ sqrt(n)."""
        def cost(n):
            rng = np.random.default_rng(42)
            fns = [Polynomial(rng.uniform(-10, 10, 2)) for _ in range(n)]
            m = mesh_machine(4096)
            envelope(m, fns, FAM1)
            return m.metrics.time
        ratio = cost(1024) / cost(64)
        # sqrt(1024/64) = 4; allow slack for constants and log terms.
        assert 2.0 < ratio < 10.0

    def test_hypercube_time_scales_like_log_squared(self):
        def cost(n):
            rng = np.random.default_rng(42)
            fns = [Polynomial(rng.uniform(-10, 10, 2)) for _ in range(n)]
            m = hypercube_machine(4096)
            envelope(m, fns, FAM1)
            return m.metrics.time
        # log^2(1024)/log^2(64) = 100/36 ~ 2.8
        ratio = cost(1024) / cost(64)
        assert 1.5 < ratio < 5.0

    def test_hypercube_faster_than_mesh(self):
        rng = np.random.default_rng(0)
        fns = [Polynomial(rng.uniform(-10, 10, 2)) for _ in range(256)]
        mm, hm = mesh_machine(1024), hypercube_machine(1024)
        envelope(mm, fns, FAM1)
        envelope(hm, fns, FAM1)
        assert hm.metrics.time < mm.metrics.time


class TestCombineMap:
    """Arithmetic ops of ``combine_pairwise(_serial)`` (Lemma 2.5)."""

    def test_difference_of_piecewise(self):
        """a(t) - d(t) pieces generated by differences (Theorem 4.5 step 2)."""
        f = PiecewiseFunction([
            Piece(0.0, 2.0, Polynomial([1.0, 1.0]), "p"),
            Piece(2.0, INF, Polynomial([3.0]), "q"),
        ])
        g = PiecewiseFunction([
            Piece(0.0, 4.0, Polynomial([0.0, 0.5]), "r"),
            Piece(4.0, INF, Polynomial([2.0]), "s"),
        ])
        diff = combine_pairwise_serial(f, g, FAM1, op="diff")
        # Lemma 2.5: at most m + n = 4 nondegenerate intersections.
        assert len(diff) <= 4
        for t in (1.0, 3.0, 5.0):
            assert diff(t) == pytest.approx(f(t) - g(t))

    def test_sum_on_machine_matches(self):
        f = PiecewiseFunction.total(Polynomial([1.0, 2.0]), "f")
        g = PiecewiseFunction.total(Polynomial([5.0, -1.0]), "g")
        out = combine_pairwise(mesh_machine(16), f, g, FAM1, op="sum")
        assert out(3.0) == pytest.approx(f(3.0) + g(3.0))

    def test_disjoint_domains_empty(self):
        f = PiecewiseFunction([Piece(0.0, 1.0, Polynomial([1.0]), "f")])
        g = PiecewiseFunction([Piece(2.0, 3.0, Polynomial([1.0]), "g")])
        assert len(combine_pairwise_serial(f, g, FAM1, op="diff")) == 0


class TestThresholdIndicator:
    def test_line_threshold(self):
        F = PiecewiseFunction.total(Polynomial([0.0, 1.0]), "f")  # t
        ind = threshold_indicator(F, FAM1, 5.0, relation="le")
        assert ind(2.0) == 1.0
        assert ind(7.0) == 0.0
        assert len(ind) == 2

    def test_ge_relation(self):
        F = PiecewiseFunction.total(Polynomial([0.0, 1.0]), "f")
        ind = threshold_indicator(F, FAM1, 5.0, relation="ge")
        assert ind(2.0) == 0.0 and ind(7.0) == 1.0

    def test_parabola_dips_below(self):
        F = PiecewiseFunction.total(Polynomial([4.0, -4.0, 1.0]), "f")
        ind = threshold_indicator(F, FAM2, 1.0)
        # (t-2)^2 <= 1 on [1, 3].
        assert ind(0.5) == 0.0
        assert ind(2.0) == 1.0
        assert ind(3.5) == 0.0
        assert len(ind) == 3

    def test_machine_charges(self):
        F = PiecewiseFunction.total(Polynomial([0.0, 1.0]), "f")
        m = mesh_machine(16)
        threshold_indicator(F, FAM1, 5.0, machine=m)
        assert m.metrics.time > 0

    def test_rejects_bad_relation(self):
        F = PiecewiseFunction.total(Polynomial([0.0, 1.0]), "f")
        with pytest.raises(OperationContractError):
            threshold_indicator(F, FAM1, 5.0, relation="lt")
