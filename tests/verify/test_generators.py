"""Unit tests for the adversarial instance generators."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.kinetics.motion import PointSystem
from repro.kinetics.polynomial import Polynomial
from repro.verify import generators
from repro.verify.generators import (
    CURVE_KINDS,
    SYSTEM_KINDS,
    SYSTEM_SIZE_FLOORS,
    curve_lists,
    curves_from_json,
    curves_to_json,
    make_curves,
    make_system,
    planar_systems,
    system_from_json,
    system_to_json,
)


def _coeffs(fns):
    return [list(map(float, f._cl)) for f in fns]


class TestDeterminism:
    @pytest.mark.parametrize("kind", sorted(CURVE_KINDS))
    def test_curves_are_pure_functions_of_seed(self, kind):
        a = make_curves(kind, seed=5, n=7, s=2)
        b = make_curves(kind, seed=5, n=7, s=2)
        assert _coeffs(a) == _coeffs(b)
        assert len(a) == 7

    @pytest.mark.parametrize("kind", ["random", "duplicate", "near_degenerate"])
    def test_one_matrix_draw_equals_the_per_curve_loop(self, kind,
                                                       monkeypatch):
        # _curves_random draws all coefficients in one (n, s + 1) call;
        # the curves (and the generator state after them) must be those
        # of one draw of s + 1 values per curve.
        def per_curve(rng, n, s):
            return [Polynomial(generators._quant(rng, s + 1))
                    for _ in range(n)]

        for seed in range(40):
            for n, s in ((1, 0), (5, 2), (33, 2), (512, 2), (7, 3)):
                r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
                got = generators.CURVE_KINDS[kind](r1, n, s)
                with monkeypatch.context() as m:
                    m.setattr(generators, "_curves_random", per_curve)
                    want = (per_curve if kind == "random" else
                            generators.CURVE_KINDS[kind])(r2, n, s)
                assert _coeffs(got) == _coeffs(want), (kind, seed, n, s)
                assert list(map(repr, got)) == list(map(repr, want))
                assert r1.random() == r2.random()

    @pytest.mark.parametrize("kind", sorted(SYSTEM_KINDS))
    def test_systems_are_pure_functions_of_seed(self, kind):
        a = make_system(kind, seed=3, n=6, k=1)
        b = make_system(kind, seed=3, n=6, k=1)
        assert system_to_json(a) == system_to_json(b)

    def test_unknown_kinds_rejected(self):
        with pytest.raises(KeyError):
            make_curves("nope", seed=0)
        with pytest.raises(KeyError):
            make_system("nope", seed=0)


class TestFamilyShapes:
    def test_tie_family_shares_a_common_point(self):
        fns = make_curves("tie", seed=11, n=6, s=2)
        # All curves pass through one common (t0, y0); find it from the
        # first pair's crossings and check every other curve hits it.
        from repro.core.family import PolynomialFamily
        crossings = PolynomialFamily(2).crossings(fns[0], fns[1], 0.0, 10.0)
        assert crossings
        hit = [t for t in crossings
               if all(abs(f(t) - fns[0](t)) < 1e-9 for f in fns)]
        assert hit, "no common tie point found"

    def test_duplicate_family_contains_exact_duplicates(self):
        fns = make_curves("duplicate", seed=2, n=8, s=2)
        keys = [tuple(c) for c in _coeffs(fns)]
        assert len(set(keys)) < len(keys)

    def test_tangent_family_touches_without_crossing(self):
        fns = make_curves("tangent", seed=4, n=2, s=2)
        f, g = fns
        diff = g - f  # c (t - a)^2: nonnegative, double root at a
        roots = diff.real_roots(0.0, 50.0)
        assert roots, "tangency root missing"
        for t in np.linspace(0.0, 20.0, 81):
            assert diff(t) >= -1e-9

    def test_degree_boundary_family_drops_leading_terms(self):
        fns = make_curves("degree_boundary", seed=9, n=12, s=3)
        assert min(f.degree for f in fns) < 3

    def test_grazing_system_has_exact_meetings(self):
        system = make_system("grazing", seed=1, n=5)
        d2 = system.distance_squared(0, 1)
        assert d2(1.5) < 1e-12  # point 1 is aimed to meet point 0 at t=1.5
        for t in np.linspace(0.0, 20.0, 201):
            assert d2(t) >= -1e-12  # a graze, not a crossing

    def test_symmetric_system_has_tied_distance_curves(self):
        system = make_system("symmetric", seed=6, n=7)
        # Mirror pairs (2i+1, 2i+2) are equidistant from point 0 for all t.
        a = system.distance_squared(0, 1)
        b = system.distance_squared(0, 2)
        for t in np.linspace(0.0, 10.0, 21):
            assert a(t) == pytest.approx(b(t), abs=1e-9)

    @pytest.mark.parametrize("kind", sorted(SYSTEM_KINDS))
    def test_systems_are_valid_and_planar(self, kind):
        system = make_system(kind, seed=8, n=6, k=1)
        assert isinstance(system, PointSystem)
        assert all(len(m.coords) == 2 for m in system)
        starts = [tuple(float(c(0.0)) for c in m.coords) for m in system]
        assert len(set(starts)) == len(starts)


class TestSizeContract:
    """Exact instance sizes, degenerate requests, and campaign-scale n."""

    @pytest.mark.parametrize("kind", sorted(CURVE_KINDS))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_curve_families_return_exactly_n(self, kind, n):
        assert len(make_curves(kind, seed=13, n=n, s=2)) == n

    @pytest.mark.parametrize("kind", sorted(SYSTEM_KINDS))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_system_families_return_floored_n(self, kind, n):
        system = make_system(kind, seed=13, n=n, k=1)
        assert len(system) == max(n, SYSTEM_SIZE_FLOORS[kind])

    def test_floors_cover_every_family(self):
        assert set(SYSTEM_SIZE_FLOORS) == set(SYSTEM_KINDS)

    @pytest.mark.parametrize("bad", [0, -4])
    def test_degenerate_sizes_rejected(self, bad):
        with pytest.raises(ValueError, match="n must be"):
            make_curves("random", seed=0, n=bad)
        with pytest.raises(ValueError, match="n must be"):
            make_system("random", seed=0, n=bad)

    @pytest.mark.parametrize("bad", [2.0, "8", None, True])
    def test_non_integer_sizes_rejected(self, bad):
        with pytest.raises(TypeError, match="n must be an integer"):
            make_curves("random", seed=0, n=bad)
        with pytest.raises(TypeError, match="n must be an integer"):
            make_system("random", seed=0, n=bad)

    def test_numpy_integer_sizes_accepted(self):
        # Campaign sweeps produce np.int64 sizes; they must pass through.
        assert len(make_curves("random", seed=0, n=np.int64(5), s=2)) == 5
        assert len(make_system("parallel", seed=0, n=np.int64(5))) == 5

    def test_degree_and_motion_bounds_validated(self):
        with pytest.raises(ValueError, match="s must be"):
            make_curves("random", seed=0, n=4, s=-1)
        with pytest.raises(ValueError, match="k must be"):
            make_system("random", seed=0, n=4, k=-1)

    @pytest.mark.parametrize("kind", ["random", "grazing", "parallel"])
    def test_campaign_scale_systems_stay_finite(self, kind):
        # 2^17 points: the builders' n-dependent terms (lane offsets,
        # mirror nudges, per-point speeds) grow at most linearly, so
        # coordinates must stay finite and starts distinct at scale.
        n = 1 << 17
        system = make_system(kind, seed=1, n=n, k=1)
        assert len(system) == n
        starts = np.array([[float(c(0.0)) for c in m.coords]
                           for m in system])
        assert np.isfinite(starts).all()
        assert len({tuple(row) for row in starts.tolist()}) == n

    def test_campaign_scale_curves_stay_finite(self):
        n = 1 << 17
        fns = make_curves("random", seed=1, n=n, s=2)
        assert len(fns) == n
        coeffs = np.concatenate([np.asarray(f._cl, dtype=float)
                                 for f in fns])
        assert np.isfinite(coeffs).all()


class TestJsonRoundTrip:
    def test_curves(self):
        fns = make_curves("random", seed=1, n=5, s=3)
        assert _coeffs(curves_from_json(curves_to_json(fns))) == _coeffs(fns)

    def test_system(self):
        system = make_system("mixed_degree", seed=2, n=5, k=2)
        again = system_from_json(system_to_json(system))
        assert system_to_json(again) == system_to_json(system)

    def test_type_tags_checked(self):
        with pytest.raises(ValueError):
            curves_from_json({"type": "system", "motions": []})
        with pytest.raises(ValueError):
            system_from_json({"type": "curves", "coeffs": []})


class TestHypothesisStrategies:
    @given(curve_lists(s=2, min_size=2, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_curve_lists_yield_polynomials(self, fns):
        assert 2 <= len(fns) <= 8  # seeded families may use their own n
        assert all(f.degree <= 2 for f in fns)

    @given(planar_systems(min_size=3, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_planar_systems_yield_valid_systems(self, system):
        assert isinstance(system, PointSystem)
        assert len(system) >= 2
