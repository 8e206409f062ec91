"""The two-executor contract: vectorized vs the interpreted reference.

The vectorized executor runs every deterministic network from a cached
:class:`~repro.ops.plans.MovementPlan`: over numeric key columns lowered
once per operation (:mod:`repro.ops.vexec`), or, when a key cannot be
lowered, by replaying the plan over the original object keys.  These
tests pin the contract bit-exactly — values *and* the full
simulated-charge snapshot must agree with the interpreted ``reference``
executor on every topology, segmented and unsegmented, for sort, merge,
scan and the route operations that ride on them, for every key family
the lowering layer accepts, and on the refusal path, which must be
observable: same results, ``vexec.fallbacks`` incremented in the shared
registry.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.steady import SteadyValue
from repro.errors import OperationContractError
from repro.kinetics.polynomial import COEFF_EPS, Polynomial
from repro.machines import (
    ccc_machine,
    hypercube_machine,
    mesh_machine,
    shuffle_exchange_machine,
)
from repro.ops import (
    bitonic_merge,
    bitonic_sort,
    fill_backward,
    fill_forward,
    pack,
    parallel_prefix,
    parallel_suffix,
    permute,
    semigroup,
    set_executor,
    vexec_stats,
)
from repro.ops.vexec import lower_keys
from repro.trace.registry import registry_snapshot
from repro.verify.compare import sim_snapshot

FACTORIES = {
    "mesh": mesh_machine,
    "hypercube": hypercube_machine,
    "ccc": ccc_machine,
    "shuffle-exchange": shuffle_exchange_machine,
}

N = 16


def assert_executors_agree(run):
    """Run ``run()`` vectorized and interpreted; assert bit-identity.

    ``run`` builds a fresh machine and returns ``(arrays, metrics)``
    where ``arrays`` is a sequence of numpy arrays.  The interpreted
    ``reference`` run is the semantic oracle.
    """
    out = {}
    for mode in ("vectorized", "reference"):
        prev = set_executor(mode)
        try:
            out[mode] = run()
        finally:
            set_executor(prev)
    (arrays, metrics), (want_arrays, want_metrics) = \
        out["vectorized"], out["reference"]
    assert len(arrays) == len(want_arrays)
    for got, want in zip(arrays, want_arrays):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
    assert sim_snapshot(metrics) == sim_snapshot(want_metrics)


def _object_floats(rng, n):
    out = np.empty(n, dtype=object)
    out[:] = rng.uniform(-5, 5, n).tolist()
    return out


def _object_ints(rng, n):
    out = np.empty(n, dtype=object)
    out[:] = [int(v) << 40 for v in rng.integers(-50, 50, n)]
    return out


def _object_tuples(rng, n):
    out = np.empty(n, dtype=object)
    out[:] = list(zip(rng.integers(0, 3, n).tolist(),
                      rng.uniform(size=n).tolist()))
    return out


def _duplicate_heavy(rng, n):
    # Many ties: pins that the vectorized permutation reproduces the
    # network's (unstable) tie arrangement exactly, not just sortedness.
    out = np.empty(n, dtype=object)
    out[:] = [float(v) for v in rng.integers(0, 3, n)]
    return out


def _fractions(values):
    out = np.empty(len(values), dtype=object)
    out[:] = [Fraction(int(v), 7) for v in values]
    return out


def _sorted_halves(values, seg):
    """``values`` with every half-segment sorted (the merge premise)."""
    halves = np.asarray(values).reshape(-1, seg // 2).tolist()
    out = np.empty(len(values), dtype=object)
    out[:] = [v for h in halves for v in sorted(h)]
    return out


KEY_FAMILIES = {
    "native_float": lambda rng, n: rng.uniform(-5, 5, n),
    "object_float": _object_floats,
    "object_bigint": _object_ints,
    "object_tuple": _object_tuples,
    "duplicate_heavy": _duplicate_heavy,
}


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@pytest.mark.parametrize("family", sorted(KEY_FAMILIES))
class TestSortEquivalence:
    def test_sort_with_payload(self, kind, family):
        rng = np.random.default_rng(7)
        keys = KEY_FAMILIES[family](rng, N)
        tags = np.arange(N)

        def run():
            m = FACTORIES[kind](N)
            (k,), (t,) = bitonic_sort(m, keys, [tags])
            return (k, t), m.metrics

        assert_executors_agree(run)

    def test_segmented_descending_sort(self, kind, family):
        rng = np.random.default_rng(11)
        keys = KEY_FAMILIES[family](rng, N)

        def run():
            m = FACTORIES[kind](N)
            (k,), _ = bitonic_sort(m, keys, segment_size=4, ascending=False)
            return (k,), m.metrics

        assert_executors_agree(run)


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@pytest.mark.parametrize("segment_size", [None, 4])
@pytest.mark.parametrize("ascending", [True, False])
class TestNetworkShapes:
    def test_sort(self, kind, segment_size, ascending):
        rng = np.random.default_rng(7)
        keys = rng.uniform(-5, 5, N)
        tags = np.arange(N)

        def run():
            m = FACTORIES[kind](N)
            (k,), (t,) = bitonic_sort(
                m, keys, [tags], segment_size=segment_size,
                ascending=ascending,
            )
            return (k, t), m.metrics

        assert_executors_agree(run)

    def test_merge(self, kind, segment_size, ascending):
        rng = np.random.default_rng(11)
        seg = segment_size or N
        keys = np.concatenate([
            np.sort(rng.uniform(size=seg // 2))[:: 1 if ascending else -1]
            for _ in range(2 * (N // seg))
        ])

        def run():
            m = FACTORIES[kind](N)
            (k,), _ = bitonic_merge(
                m, keys, segment_size=segment_size, ascending=ascending
            )
            return (k,), m.metrics

        assert_executors_agree(run)


@pytest.mark.parametrize("kind", sorted(FACTORIES))
class TestMergeEquivalence:
    def test_merge_object_keys(self, kind):
        rng = np.random.default_rng(13)
        keys = np.empty(N, dtype=object)
        keys[:N // 2] = np.sort(rng.uniform(size=N // 2)).tolist()
        keys[N // 2:] = np.sort(rng.uniform(size=N // 2)).tolist()
        tags = np.arange(N)

        def run():
            m = FACTORIES[kind](N)
            (k,), (t,) = bitonic_merge(m, keys, [tags])
            return (k, t), m.metrics

        assert_executors_agree(run)


@pytest.mark.parametrize("kind", sorted(FACTORIES))
class TestScanEquivalence:
    def test_semigroup_min_max_object(self, kind):
        rng = np.random.default_rng(17)
        vals = _object_floats(rng, N)

        def run():
            m = FACTORIES[kind](N)
            lo = semigroup(m, vals, np.minimum)
            hi = semigroup(m, vals, np.maximum)
            return (lo, hi), m.metrics

        assert_executors_agree(run)

    def test_semigroup_add_object(self, kind):
        rng = np.random.default_rng(19)
        vals = _object_floats(rng, N)

        def run():
            m = FACTORIES[kind](N)
            return (semigroup(m, vals, np.add),), m.metrics

        assert_executors_agree(run)

    def test_fill_and_pack_ride_along(self, kind):
        # Fills/prefix are whole-array under both executors; pack rides on
        # them.  Pinned here so the executor switch can never skew them.
        rng = np.random.default_rng(23)
        vals = _object_floats(rng, N)
        known = np.zeros(N, dtype=bool)
        known[[2, 9, 14]] = True
        keep = rng.uniform(size=N) < 0.5

        def run():
            m = FACTORIES[kind](N)
            filled = fill_forward(m, vals, known)
            pre = parallel_prefix(m, np.arange(N), np.add)
            (packed,), count = pack(m, keep, [vals])
            return (filled, pre, packed, np.asarray([count])), m.metrics

        assert_executors_agree(run)


@pytest.mark.parametrize("kind", sorted(FACTORIES))
class TestScanRouteEquivalence:
    def test_segmented_prefix_suffix(self, kind):
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 9, N).astype(np.int64)
        segments = np.zeros(N, dtype=bool)
        segments[[0, 5, 11]] = True

        def run():
            m = FACTORIES[kind](N)
            pre = parallel_prefix(m, vals, np.add, segments=segments)
            suf = parallel_suffix(m, vals, np.add, segments=segments)
            return (pre, suf), m.metrics

        assert_executors_agree(run)

    def test_semigroup_butterfly(self, kind):
        vals = np.random.default_rng(5).uniform(size=N)

        def run():
            m = FACTORIES[kind](N)
            return (semigroup(m, vals, np.minimum),), m.metrics

        assert_executors_agree(run)

    def test_fill_backward(self, kind):
        vals = np.arange(N, dtype=float)
        known = np.zeros(N, dtype=bool)
        known[[2, 9, 14]] = True

        def run():
            m = FACTORIES[kind](N)
            return (fill_backward(m, vals, known),), m.metrics

        assert_executors_agree(run)

    def test_pack_and_permute(self, kind):
        rng = np.random.default_rng(13)
        vals = rng.uniform(size=N)
        keep = rng.uniform(size=N) < 0.5
        dest = rng.permutation(N)

        def run():
            m = FACTORIES[kind](N)
            (packed,), count = pack(m, keep, [vals])
            (routed,) = permute(m, dest, [vals])
            return (packed, np.asarray([count]), routed), m.metrics

        assert_executors_agree(run)


class TestMultiKey:
    def test_mixed_native_and_object_keys(self):
        rng = np.random.default_rng(29)
        k1 = rng.integers(0, 3, N)
        k2 = _object_floats(rng, N)

        def run():
            m = mesh_machine(N)
            (s1, s2), _ = bitonic_sort(m, [k1, k2])
            return (s1, s2), m.metrics

        assert_executors_agree(run)


class TestObjectKeys:
    def test_multi_key_sort(self):
        rng = np.random.default_rng(19)
        k1 = rng.integers(0, 3, N)
        k2 = rng.uniform(size=N)

        def run():
            m = mesh_machine(N)
            (s1, s2), _ = bitonic_sort(m, [k1, k2])
            return (s1, s2), m.metrics

        assert_executors_agree(run)

    def test_object_dtype_sort(self):
        """The pre-oriented comparator must agree on object keys carrying
        object (Polynomial) payloads."""
        from numpy.polynomial import Polynomial

        rng = np.random.default_rng(17)
        coeffs = rng.integers(-3, 4, N)
        keys = np.empty(N, dtype=object)
        keys[:] = [float(c) for c in coeffs]
        tags = np.array([Polynomial([c]) for c in coeffs], dtype=object)

        def run():
            m = hypercube_machine(N)
            (k,), (t,) = bitonic_sort(m, keys, [tags])
            return (k,), m.metrics

        assert_executors_agree(run)


class TestLowering:
    def test_lowerable_families(self):
        rng = np.random.default_rng(31)
        for family in ("object_float", "object_bigint", "object_tuple"):
            cols = lower_keys([KEY_FAMILIES[family](rng, N)])
            assert cols is not None, family
            assert all(c.dtype != object for c in cols), family

    def test_tuple_keys_widen_to_columns(self):
        rng = np.random.default_rng(37)
        cols = lower_keys([_object_tuples(rng, N)])
        assert len(cols) == 2

    def test_refusals(self):
        fractions = _fractions(range(N))
        huge = np.empty(N, dtype=object)
        huge[:] = [i << 200 for i in range(N)]
        inexact = np.empty(N, dtype=object)
        inexact[:] = [(1 << 53) + 1 - i for i in range(N // 2)] + \
            [0.5] * (N - N // 2)
        ragged = np.empty(N, dtype=object)
        ragged[:] = [(1,)] * (N - 1) + [(1, 2)]
        for name, arr in [("fractions", fractions), ("huge", huge),
                          ("inexact_mixed", inexact), ("ragged", ragged)]:
            assert lower_keys([arr]) is None, name


def _steady_values(rng, n):
    """Steady keys of degree 0..2 on a 1/4 grid: many exact ties, and
    distinct coefficients far apart, so they lower."""
    out = np.empty(n, dtype=object)
    out[:] = [SteadyValue(Polynomial(rng.integers(-2, 3, 1 + i % 3) / 4))
              for i in range(n)]
    return out


def _tolerance_close_steady(n):
    """Steady keys with two unequal constants within COEFF_EPS."""
    out = np.empty(n, dtype=object)
    out[:] = [SteadyValue(Polynomial([1.0 + (COEFF_EPS / 2 if i % 5 == 0
                                             else 0.0), (i % 3) - 1.0]))
              for i in range(n)]
    return out


def _counted(run):
    """``run`` under both executors; the lowering counters' deltas."""
    before = vexec_stats()
    assert_executors_agree(run)
    after = vexec_stats()
    return {k: after[k] - before[k] for k in after}


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@pytest.mark.parametrize("segment_size", [None, 4],
                         ids=["unsegmented", "segmented"])
class TestSteadyKeys:
    """SteadyValue keys lower to coefficient columns, highest degree first."""

    def test_sort(self, kind, segment_size):
        keys = _steady_values(np.random.default_rng(43), N)
        tags = np.arange(N)

        def run():
            m = FACTORIES[kind](N)
            (k,), (t,) = bitonic_sort(m, keys, [tags],
                                      segment_size=segment_size)
            return (k, t), m.metrics

        assert _counted(run) == {"lowered": 1, "fallbacks": 0}

    def test_merge(self, kind, segment_size):
        seg = segment_size or N
        keys = _sorted_halves(_steady_values(np.random.default_rng(47), N),
                              seg)
        tags = np.arange(N)

        def run():
            m = FACTORIES[kind](N)
            (k,), (t,) = bitonic_merge(m, keys, [tags],
                                       segment_size=segment_size)
            return (k, t), m.metrics

        assert _counted(run) == {"lowered": 1, "fallbacks": 0}

    def test_close_coefficients_refuse_and_keep_the_tolerant_order(
            self, kind, segment_size):
        keys = _tolerance_close_steady(N)
        assert lower_keys([keys]) is None
        tags = np.arange(N)

        def run():
            m = FACTORIES[kind](N)
            (k,), (t,) = bitonic_sort(m, keys, [tags],
                                      segment_size=segment_size)
            return (k, t), m.metrics

        assert _counted(run) == {"lowered": 0, "fallbacks": 1}
        (k,), _ = bitonic_sort(FACTORIES[kind](N), keys, [tags],
                               segment_size=segment_size)
        seg = segment_size or N
        for start in range(0, N, seg):
            run_ = k[start:start + seg].tolist()
            assert all(a.compare(b) <= 0 for a, b in zip(run_, run_[1:]))


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_steady_select_butterflies_pick_the_same_objects(kind):
    # Ties keep the first operand under both executors, so the winners
    # are the same objects, not merely equal values.
    vals = _steady_values(np.random.default_rng(53), N)
    out = {}
    before = vexec_stats()
    for mode in ("vectorized", "reference"):
        prev = set_executor(mode)
        try:
            m = FACTORIES[kind](N)
            out[mode] = ([semigroup(m, vals, op) for op in
                          (np.minimum, np.maximum)], sim_snapshot(m.metrics))
        finally:
            set_executor(prev)
    after = vexec_stats()
    assert (after["lowered"] - before["lowered"],
            after["fallbacks"] - before["fallbacks"]) == (2, 0)
    (got, got_sim), (want, want_sim) = out["vectorized"], out["reference"]
    assert got_sim == want_sim
    for g, w in zip(got, want):
        assert all(a is b for a, b in zip(g, w))


def test_steady_columns_run_from_the_highest_degree():
    keys = np.empty(3, dtype=object)
    keys[:] = [SteadyValue(Polynomial(c)) for c in
               ([1.0, 2.0, 3.0], [4.0], [0.5, -1.0])]
    cols = lower_keys([keys])
    assert [c.tolist() for c in cols] == [[3.0, 0.0, 0.0],
                                          [2.0, 0.0, -1.0],
                                          [1.0, 4.0, 0.5]]


def _nan_keys():
    keys = np.empty(8, dtype=object)
    keys[:] = [3.0, float("nan"), 1.0, 7.0, 2.0, 5.0, 0.0, 4.0]
    return keys


def _nan_tuples():
    keys = np.empty(8, dtype=object)
    keys[:] = [(i % 3, float("nan") if i == 5 else float(i))
               for i in range(8)]
    return keys


def _nan_beside_fractions():
    # The Fraction column refuses lowering first, so the NaN is found on
    # the object-key replay path.
    keys = np.empty(8, dtype=object)
    keys[:] = [(Fraction(i, 3), float("nan") if i == 2 else 0.5)
               for i in range(8)]
    return keys


@pytest.mark.usefixtures("plan_mode")
class TestNaNKeys:
    @pytest.mark.parametrize("build", [_nan_keys, _nan_tuples,
                                       _nan_beside_fractions],
                             ids=["scalar", "tuple", "tuple-unlowerable"])
    @pytest.mark.parametrize("op", [bitonic_sort, bitonic_merge],
                             ids=["sort", "merge"])
    def test_object_nan_keys_are_rejected(self, build, op):
        with pytest.raises(OperationContractError, match="NaN"):
            op(hypercube_machine(8), build())

    def test_randomized_sort_rejects_object_nan_keys(self):
        with pytest.raises(OperationContractError, match="NaN"):
            bitonic_sort(hypercube_machine(8, randomized=True), _nan_keys())


class TestObservableFallback:
    @pytest.mark.parametrize("kind", sorted(FACTORIES))
    @pytest.mark.parametrize("op", ["sort", "merge"])
    @pytest.mark.parametrize("segment_size", [None, 4],
                             ids=["unsegmented", "segmented"])
    @pytest.mark.parametrize("ascending", [True, False],
                             ids=["ascending", "descending"])
    def test_non_lowerable_keys_fall_back_identically(
            self, kind, op, segment_size, ascending):
        values = [3 * i % 11 for i in range(N)]
        tags = np.arange(N)
        if op == "sort":
            keys, network = _fractions(values), bitonic_sort
        else:
            seg = segment_size or N
            keys = _sorted_halves(_fractions(values), seg)
            network = bitonic_merge

        def run():
            m = FACTORIES[kind](N)
            (k,), (t,) = network(m, keys, [tags], ascending=ascending,
                                 segment_size=segment_size)
            return (k, t), m.metrics

        before = vexec_stats()
        assert_executors_agree(run)
        after = vexec_stats()
        # Exactly the one vectorized attempt refused; the reference run
        # never consults the lowering layer.
        assert after["fallbacks"] == before["fallbacks"] + 1
        assert after["lowered"] == before["lowered"]

    def test_fallback_visible_in_registry_snapshot(self):
        keys = _fractions(range(N))
        before = registry_snapshot().get("vexec.fallbacks", 0)
        bitonic_sort(mesh_machine(N), keys)
        snap = registry_snapshot()
        assert snap["vexec.fallbacks"] == before + 1

    def test_lowered_counter_advances(self):
        before = vexec_stats()["lowered"]
        bitonic_sort(mesh_machine(N), np.arange(N, dtype=float))
        assert vexec_stats()["lowered"] == before + 1

    def test_custom_semigroup_op_falls_back(self):
        rng = np.random.default_rng(41)
        vals = _object_floats(rng, N)
        lifted = np.frompyfunc(lambda a, b: a if a < b else b, 2, 1)

        def run():
            m = mesh_machine(N)
            return (semigroup(m, vals, lifted),), m.metrics

        before = vexec_stats()["fallbacks"]
        assert_executors_agree(run)
        assert vexec_stats()["fallbacks"] == before + 1
