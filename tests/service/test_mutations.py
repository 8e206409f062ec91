"""Mutation traffic: dynamic families, targeted invalidation, parity.

The write half of the serving story (``docs/incremental.md``): a
mutation updates a named family's envelope in place through the
incremental engine and evicts *exactly* the run keys that family's
queries cache under — pinned here with exact counters (mutating family
A must leave family B's entry and every static entry untouched).  Read
traffic after any mutation sequence answers byte-identically to a cold
serial driver run over the surviving curves.
"""

import json

import pytest

from repro.core.envelope import envelope_serial
from repro.core.family import PolynomialFamily
from repro.service import (
    QueryService,
    ServiceError,
    mutation,
    request,
    validate_mutation,
)
from repro.service.dynamic import DynamicFamilyStore
from repro.service.model import _encode_envelope

from .conftest import run_async

pytestmark = [pytest.mark.service, pytest.mark.incremental]


def canon(obj):
    return json.dumps(obj, sort_keys=True)


def cold_reference(engine):
    family = PolynomialFamily(engine.family.s)
    return _encode_envelope(
        envelope_serial(engine.reference_curves(), family, op=engine.op))


class TestValidation:
    def test_unknown_action_rejected_at_build(self):
        with pytest.raises(KeyError):
            mutation("fam", "upsert")

    def test_required_params(self):
        assert validate_mutation(mutation("fam", "insert")) != []
        assert validate_mutation(mutation("fam", "delete")) != []
        assert validate_mutation(
            mutation("fam", "retarget", curve_id=1)) != []

    def test_unknown_params_flagged(self):
        problems = validate_mutation(
            mutation("fam", "delete", curve_id=1, extra=2))
        assert any("extra" in p for p in problems)

    def test_nonfinite_coeffs_flagged(self):
        problems = validate_mutation(
            mutation("fam", "insert", coeffs=(1.0, float("nan"))))
        assert problems

    def test_valid_mutations_pass(self):
        assert validate_mutation(
            mutation("fam", "insert", coeffs=(1.0, -2.0))) == []
        assert validate_mutation(mutation("fam", "create", op="max",
                                          kind="random", seed=1, n=4)) == []
        assert validate_mutation(mutation("fam", "drop")) == []


class TestStore:
    def test_store_is_bounded(self):
        store = DynamicFamilyStore(max_families=1)
        store.apply("a", "create", {})
        with pytest.raises(ServiceError) as err:
            store.apply("b", "create", {})
        assert err.value.code == "store_full"

    def test_duplicate_create_and_unknown_family(self):
        store = DynamicFamilyStore()
        store.apply("a", "create", {})
        with pytest.raises(ServiceError) as err:
            store.apply("a", "create", {})
        assert err.value.code == "family_exists"
        with pytest.raises(ServiceError) as err:
            store.apply("nope", "insert", {"coeffs": (1.0,)})
        assert err.value.code == "no_such_family"

    def test_clear_empties(self):
        store = DynamicFamilyStore()
        store.apply("a", "create", {})
        store.clear()
        assert len(store) == 0 and store.stats()["families"] == 0


class TestMutationsEndToEnd:
    @pytest.fixture(scope="class")
    def served(self):
        """One mutation session: two dynamic families plus one static
        request, mutations against family A only."""

        async def go():
            log = {}
            async with QueryService(shards=2, cache_capacity=64) as svc:
                static = request("envelope", kind="random", seed=1, n=4,
                                 backend="serial")
                await svc.submit(static)           # static entry cached
                await svc.mutate(mutation("a", "create", op="min",
                                          kind="random", seed=3, n=6))
                await svc.mutate(mutation("b", "create", op="max",
                                          kind="random", seed=4, n=5))
                log["qa_cold"] = await svc.submit_dynamic("a")
                log["qa_warm"] = await svc.submit_dynamic("a")
                log["qb_cold"] = await svc.submit_dynamic("b")
                log["ins"] = await svc.mutate(
                    mutation("a", "insert", coeffs=(0.5, -1.0, 0.25)))
                log["qb_after"] = await svc.submit_dynamic("b")
                log["qa_after"] = await svc.submit_dynamic("a")
                cid = log["ins"].payload["result"]["curve_id"]
                log["del"] = await svc.mutate(
                    mutation("a", "delete", curve_id=cid))
                log["ret"] = await svc.mutate(
                    mutation("a", "retarget", curve_id=0,
                             coeffs=(2.0, 0.5)))
                log["static_warm"] = await svc.submit(static)
                log["qa_final"] = await svc.submit_dynamic("a")
                log["reference"] = cold_reference(svc.dynamic.engine("a"))
                log["entry"] = svc.dynamic.entry("a")
            return log, svc

        return run_async(go())

    def test_mutation_receipts(self, served):
        log, _ = served
        res = log["ins"].payload["result"]
        assert res["size"] == 7 and res["version"] == 2
        assert res["update"]["op"] == "insert"
        assert log["ins"].payload["schema"] == "repro.service/1"
        assert log["ret"].payload["result"]["update"]["op"] == "retarget"

    def test_reads_cache_until_the_next_mutation(self, served):
        log, _ = served
        assert not log["qa_cold"].meta["cache_hit"]
        assert log["qa_warm"].meta["cache_hit"]
        # the insert evicted a's entry, so the next read recomputes
        assert not log["qa_after"].meta["cache_hit"]

    def test_targeted_invalidation_is_exact(self, served):
        log, svc = served
        # a's entry was the only cached key for a: exactly one eviction.
        assert log["ins"].payload["invalidated"] == 1
        assert log["ins"].meta["invalidated"] == 1
        # b's entry and the static entry survived the mutations of a.
        assert log["qb_after"].meta["cache_hit"]
        assert log["static_warm"].cache_hit
        # delete + retarget each evicted the re-cached entry of a.
        assert log["del"].payload["invalidated"] == 1
        assert log["ret"].payload["invalidated"] == 0  # not re-read between
        assert svc.cache.stats()["invalidations"] == 2
        assert svc.counters.invalidated_keys == 2

    def test_answers_byte_identical_to_cold_serial_run(self, served):
        log, _ = served
        assert canon(log["entry"]["result"]) == canon(log["reference"])
        answer = log["qa_final"].payload["answer"]
        assert canon(answer) == canon(log["reference"]["pieces"])

    def test_stats_surface(self, served):
        log, svc = served
        assert svc.counters.mutations == 5
        assert svc.counters.dynamic_queries == 6
        assert svc.counters.dynamic_cache_hits == 2
        dyn = svc.stats()["dynamic"]
        assert dyn["mutations"] == 5
        # stop() cleared the store (RPR004: bounded, clearable, accounted)
        assert dyn["families"] == 0

    def test_dynamic_payload_coordinates(self, served):
        log, _ = served
        fam = log["qa_final"].payload["family"]
        assert fam == {"domain": "dynamic", "name": "a",
                       "version": 4, "size": 6}
        assert log["qa_final"].payload["backend"] == "incremental"


class TestErrorPaths:
    def test_state_errors_are_structured(self):
        async def go():
            errs = {}
            async with QueryService(shards=1, cache_capacity=8) as svc:
                await svc.mutate(mutation("a", "create"))
                for label, m in [
                    ("missing", mutation("nope", "insert", coeffs=(1.0,))),
                    ("curve", mutation("a", "delete", curve_id=77)),
                    ("dup", mutation("a", "create")),
                    ("shape", mutation("a", "insert")),
                ]:
                    try:
                        await svc.mutate(m)
                    except ServiceError as exc:
                        errs[label] = exc.code
            return errs

        errs = run_async(go())
        assert errs == {"missing": "no_such_family",
                        "curve": "no_such_curve",
                        "dup": "family_exists",
                        "shape": "bad_mutation"}

    def test_drop_invalidates_remaining_entries(self):
        async def go():
            async with QueryService(shards=1, cache_capacity=8) as svc:
                await svc.mutate(mutation("a", "create", op="min",
                                          kind="random", seed=9, n=4))
                await svc.submit_dynamic("a")
                resp = await svc.mutate(mutation("a", "drop"))
                dropped = resp.payload["invalidated"]
                try:
                    await svc.submit_dynamic("a")
                    missing = None
                except ServiceError as exc:
                    missing = exc.code
            return dropped, missing

        dropped, missing = run_async(go())
        assert dropped == 1
        assert missing == "no_such_family"

    def test_bad_query_shape_rejected(self):
        async def go():
            async with QueryService(shards=1, cache_capacity=8) as svc:
                await svc.mutate(mutation("a", "create", op="min",
                                          kind="random", seed=9, n=4))
                try:
                    await svc.submit_dynamic("a", q="no_such_query")
                except ServiceError as exc:
                    return exc.code

        assert run_async(go()) == "bad_request"
