"""Unit tests for the service query model.

Families, requests, run/query parameter splits, validation, run keys,
sharding, driver execution with JSON result encoding, and the pure
query-answer evaluation the event loop performs.
"""

import json

import numpy as np
import pytest

from repro.core.envelope import envelope_serial
from repro.core.family import PolynomialFamily
from repro.core.hull_membership import hull_membership_intervals
from repro.core.steady import steady_hull
from repro.ops.plans import get_executor, set_executor
from repro.service import (
    FamilySpec,
    QueryRequest,
    ServiceError,
    direct_response,
    request,
    run_key,
    shard_of,
    validate_request,
)
from repro.service.model import answer_query, response_payload, run_driver
from repro.verify.generators import SYSTEM_SIZE_FLOORS

pytestmark = pytest.mark.service


class TestFamilySpec:
    def test_rejects_unknown_domain(self):
        with pytest.raises(ValueError, match="domain"):
            FamilySpec("graphs", "random", 0, 4)

    def test_rejects_unknown_kind(self):
        with pytest.raises(KeyError, match="kind"):
            FamilySpec("curves", "no_such_kind", 0, 4)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="size"):
            FamilySpec("curves", "random", 0, 0)

    def test_build_is_deterministic_in_coordinates(self):
        spec = FamilySpec("curves", "random", seed=9, n=5, degree=2)
        assert np.array_equal(np.asarray(spec.build()),
                              np.asarray(FamilySpec("curves", "random",
                                                    9, 5, 2).build()))

    def test_size_matches_build_with_system_floor(self):
        for kind, floor in SYSTEM_SIZE_FLOORS.items():
            spec = FamilySpec("system", kind, seed=0, n=1, degree=1)
            assert spec.size() == max(1, floor) == len(spec.build())

    def test_dict_roundtrip(self):
        spec = FamilySpec("system", "crossing", 4, 7, 1)
        assert FamilySpec.from_dict(spec.to_dict()) == spec


class TestQueryRequest:
    def test_builder_sorts_params_canonically(self):
        req = request("envelope", kind="random", seed=0, n=4,
                      t=0.5, q="value_at", op="min")
        assert req.params == (("op", "min"), ("q", "value_at"), ("t", 0.5))

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError, match="algorithm"):
            request("voronoi", kind="random", seed=0, n=4)

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="backend"):
            request("envelope", kind="random", seed=0, n=4, backend="torus")

    def test_domain_mismatch_raises(self):
        system = FamilySpec("system", "random", 0, 5, 1)
        with pytest.raises(ValueError, match="families"):
            QueryRequest("envelope", system)

    def test_run_params_defaults(self):
        assert request("envelope", kind="random", seed=0,
                       n=4).run_params() == {"op": "min"}
        assert request("hull_membership", kind="random", seed=0,
                       n=5).run_params() == {"query": 0}
        assert request("steady_hull", kind="random", seed=0,
                       n=5).run_params() == {}

    def test_query_excludes_run_params_and_defaults_q(self):
        req = request("envelope", kind="random", seed=0, n=4,
                      op="max", q="value_at", t=1.5)
        assert req.query() == {"q": "value_at", "t": 1.5}
        assert request("steady_hull", kind="random", seed=0,
                       n=5).query() == {"q": "hull"}

    def test_key_is_hashable_request_identity(self):
        a = request("envelope", kind="random", seed=0, n=4, op="min")
        b = request("envelope", kind="random", seed=0, n=4, op="min")
        c = request("envelope", kind="random", seed=0, n=4, op="max")
        assert a.key() == b.key() and hash(a.key()) == hash(b.key())
        assert a.key() != c.key()


class TestValidateRequest:
    def test_valid_requests_have_no_problems(self):
        assert validate_request(request("envelope", kind="random", seed=0,
                                        n=4, op="max")) == []
        assert validate_request(request("hull_membership", kind="random",
                                        seed=0, n=5, query=2,
                                        q="member_at", t=0.0)) == []

    def test_bad_envelope_op(self):
        req = request("envelope", kind="random", seed=0, n=4, op="median")
        assert any("op" in p for p in validate_request(req))

    def test_hull_query_index_out_of_range(self):
        req = request("hull_membership", kind="random", seed=0, n=5,
                      query=99)
        assert any("out of range" in p for p in validate_request(req))

    def test_unknown_query_name(self):
        req = request("steady_hull", kind="random", seed=0, n=5,
                      q="perimeter")
        assert any("unknown steady_hull query" in p
                   for p in validate_request(req))

    def test_missing_required_query_argument(self):
        req = request("envelope", kind="random", seed=0, n=4, q="value_at")
        assert any("requires parameter 't'" in p
                   for p in validate_request(req))

    def test_unknown_parameter(self):
        req = request("envelope", kind="random", seed=0, n=4, fnord=1)
        assert any("unknown parameter 'fnord'" in p
                   for p in validate_request(req))


class TestRunKeyAndShard:
    def test_derived_queries_share_the_run_key(self):
        full = request("envelope", kind="random", seed=0, n=4, op="min")
        at = request("envelope", kind="random", seed=0, n=4, op="min",
                     q="value_at", t=0.5)
        assert run_key(full, 64) == run_key(at, 64)

    def test_run_parameters_split_the_run_key(self):
        a = request("envelope", kind="random", seed=0, n=4, op="min")
        b = request("envelope", kind="random", seed=0, n=4, op="max")
        assert run_key(a, 64) != run_key(b, 64)
        assert run_key(a, 64) != run_key(a, 16)

    def test_shard_is_deterministic_and_in_range(self):
        for seed in range(20):
            req = request("steady_hull", kind="random", seed=seed, n=5)
            key = run_key(req, 64)
            for n_shards in (1, 2, 3, 8):
                s = shard_of(key, n_shards)
                assert 0 <= s < n_shards
                assert s == shard_of(key, n_shards)

    def test_shard_depends_only_on_the_family(self):
        a = request("hull_membership", kind="random", seed=3, n=6, query=0)
        b = request("hull_membership", kind="random", seed=3, n=6, query=2)
        assert shard_of(run_key(a, 64), 8) == shard_of(run_key(b, 16), 8)


class TestRunDriverEncoding:
    def test_envelope_answer_matches_piecewise_evaluation(self):
        spec = FamilySpec("curves", "random", 11, 5, 2)
        entry = run_driver("envelope", spec, {"op": "min"}, "serial", 64)
        env = envelope_serial(spec.build(), PolynomialFamily(2), op="min")
        for t in (0.0, 0.25, 1.0, 3.0):
            got = answer_query("envelope", entry["result"],
                               {"q": "value_at", "t": t})
            piece = env.piece_at(t)
            assert got["value"] == pytest.approx(float(piece.fn(t)),
                                                 abs=1e-12)
            assert got["label"] == repr(piece.label)

    def test_membership_answer_matches_interval_scan(self):
        spec = FamilySpec("system", "random", 4, 6, 1)
        entry = run_driver("hull_membership", spec, {"query": 0},
                           "serial", 64)
        raw = hull_membership_intervals(None, spec.build(), query=0)
        assert entry["result"]["intervals"] == \
            [[float(lo), float(hi)] for lo, hi in raw]
        for lo, hi in entry["result"]["intervals"]:
            mid = (lo + hi) / 2.0
            assert answer_query("hull_membership", entry["result"],
                                {"q": "member_at", "t": mid}) is True

    def test_hull_answer_matches_driver_indices(self):
        spec = FamilySpec("system", "random", 8, 7, 1)
        entry = run_driver("steady_hull", spec, {}, "serial", 64)
        hull = [int(i) for i in steady_hull(None, spec.build())]
        assert entry["result"]["hull"] == hull
        for i in range(spec.size()):
            assert answer_query("steady_hull", entry["result"],
                                {"q": "is_extreme", "i": i}) == (i in hull)

    def test_serial_backend_has_no_sim_charges(self):
        spec = FamilySpec("curves", "random", 0, 4, 2)
        entry = run_driver("envelope", spec, {"op": "min"}, "serial", 64)
        assert entry["sim"] is None and entry["sim_time"] == 0.0

    def test_parallel_backend_charges_sim_time(self):
        spec = FamilySpec("curves", "random", 0, 4, 2)
        entry = run_driver("envelope", spec, {"op": "min"}, "mesh", 64)
        assert entry["sim_time"] > 0.0
        assert entry["sim"]["time"] == entry["sim_time"]

    def test_entry_is_json_plain(self):
        spec = FamilySpec("system", "random", 2, 6, 1)
        entry = run_driver("hull_membership", spec, {"query": 1},
                           "mesh", 64)
        assert json.loads(json.dumps(entry)) == entry

    def test_unknown_answer_query_raises(self):
        with pytest.raises(KeyError):
            answer_query("envelope", {"pieces": []}, {"q": "nope"})


class TestResponsePayload:
    def test_payload_is_a_pure_function_of_run_and_query(self):
        req = request("envelope", kind="random", seed=5, n=4, op="min",
                      q="value_at", t=0.75)
        entry = run_driver(req.algorithm, req.family, req.run_params(),
                           req.backend, 64)
        a = response_payload(req, entry, machine_size=64)
        b = response_payload(req, entry, machine_size=64)
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["schema"] == "repro.service/1"
        assert a["executor"] is None

    def test_direct_response_restores_the_ambient_executor(self):
        # A direct run leaves the process-wide executor where the caller
        # set it, and its payload does not depend on which one that is.
        req = request("steady_hull", kind="random", seed=1, n=5)
        want = direct_response(req)
        prev = set_executor("reference")
        try:
            assert direct_response(req) == want
            assert get_executor() == "reference"
        finally:
            set_executor(prev)

    def test_service_error_is_structured(self):
        err = ServiceError("worker_failed", "boom", {"shard": 3})
        assert err.code == "worker_failed"
        assert err.to_dict() == {"code": "worker_failed", "detail": "boom",
                                 "context": {"shard": 3}}
        assert "worker_failed" in str(err)
