"""Bit-identity of served responses against per-query driver runs.

The service's central contract: batching, dedupe, caching, shard count,
arrival order, and worker plumbing may change only response *metadata*
(latency, cache flags) — never a payload byte.  Every test here compares
``QueryResponse.payload`` / ``payload_bytes()`` against
:func:`repro.service.model.direct_response`, the per-query driver oracle,
or against the same stream served under a different configuration.
"""

import asyncio

import pytest

from repro.parallel import parallel_map
from repro.service import QueryService, direct_item, direct_response, request
from repro.verify.compare import outputs_match

from .conftest import mixed_stream, run_async

pytestmark = pytest.mark.service


def payload_bytes(resps):
    return [r.payload_bytes() for r in resps]


class TestDirectEquivalence:
    @pytest.mark.usefixtures("plan_mode")
    def test_batched_responses_match_per_query_driver_runs(self, serve):
        # Under both data-movement executors (plan_mode), the batched
        # service answers exactly what a fresh per-query driver run
        # answers.  Thread workers share the process-wide executor, so
        # the direct baseline runs under the same one.
        reqs = mixed_stream()
        resps, _ = serve(reqs, shards=2)
        for req, resp in zip(reqs, resps):
            assert resp.payload == direct_response(req)

    def test_batching_is_semantically_invisible_under_verify_compare(
            self, serve):
        # The oracle's own comparator agrees: served answers are
        # value-equivalent to direct driver answers, not just repr-equal.
        reqs = mixed_stream()
        resps, _ = serve(reqs, shards=3)
        for req, resp in zip(reqs, resps):
            direct = direct_response(req)
            assert outputs_match(resp.answer, direct["answer"]) == []

    def test_parallel_map_baseline_matches_the_service(self, serve):
        # The campaign engine computes the same baselines at scale with
        # its deterministic merge-by-index; the service must agree with
        # that path too.
        reqs = mixed_stream()
        resps, _ = serve(reqs, shards=2)
        baselines = parallel_map(direct_item,
                                 [(r, 64) for r in reqs], jobs=2)
        assert [r.payload for r in resps] == baselines


class TestConfigurationInvariance:
    def test_shard_count_cannot_change_a_payload_byte(self, serve):
        reqs = mixed_stream()
        reference = payload_bytes(serve(reqs, shards=1)[0])
        for shards in (2, 3, 5):
            assert payload_bytes(serve(reqs, shards=shards)[0]) == reference

    def test_arrival_order_cannot_change_a_payload_byte(self, serve):
        reqs = mixed_stream()
        by_request = {}
        resps, _ = serve(reqs, shards=2)
        for req, resp in zip(reqs, resps):
            by_request[req.key()] = resp.payload_bytes()
        reordered = list(reversed(reqs))
        for req, resp in zip(reordered, serve(reordered, shards=2)[0]):
            assert resp.payload_bytes() == by_request[req.key()]

    def test_batching_off_matches_batching_on(self, serve):
        reqs = mixed_stream()
        on = payload_bytes(serve(reqs, shards=2, batching=True)[0])
        off = payload_bytes(serve(reqs, shards=2, batching=False,
                                  cache_capacity=0)[0])
        assert on == off

    def test_cache_off_matches_cache_on(self, serve):
        reqs = mixed_stream() * 2
        cached = payload_bytes(serve(reqs, cache_capacity=256)[0])
        uncached = payload_bytes(serve(reqs, cache_capacity=0)[0])
        assert cached == uncached

    def test_max_batch_split_cannot_change_a_payload_byte(self, serve):
        reqs = mixed_stream()
        wide = payload_bytes(serve(reqs, max_batch=64)[0])
        narrow = payload_bytes(serve(reqs, max_batch=1)[0])
        assert wide == narrow

    def test_process_workers_match_direct(self):
        # A run in an isolated worker process answers exactly what an
        # in-process direct run answers.
        req = request("steady_hull", kind="random", seed=2, n=5)

        async def go():
            async with QueryService(shards=1, workers="process") as svc:
                return await svc.submit(req)

        resp = run_async(go())
        assert resp.payload == direct_response(req)


class TestCacheByteEquality:
    def test_warm_payload_is_byte_equal_to_cold(self):
        reqs = mixed_stream()

        async def go():
            async with QueryService(shards=2) as svc:
                cold = await svc.submit_many(reqs)
                warm = await svc.submit_many(reqs)
                return cold, warm

        cold, warm = run_async(go())
        assert all(not r.cache_hit for r in cold)
        assert all(r.cache_hit for r in warm)
        assert payload_bytes(warm) == payload_bytes(cold)

    def test_cache_hit_flag_lives_in_meta_not_payload(self):
        req = request("envelope", kind="random", seed=6, n=4, op="min")

        async def go():
            async with QueryService() as svc:
                a = await svc.submit(req)
                b = await svc.submit(req)
                return a, b

        a, b = run_async(go())
        assert (a.meta["cache_hit"], b.meta["cache_hit"]) == (False, True)
        assert "cache_hit" not in a.payload
        assert a.payload == b.payload

    def test_submit_many_preserves_request_order(self, serve):
        reqs = mixed_stream()
        resps, _ = serve(reqs, shards=3)
        for req, resp in zip(reqs, resps):
            assert resp.payload["algorithm"] == req.algorithm
            assert resp.payload["family"] == req.family.to_dict()
            assert resp.payload["query"] == req.query()


class TestConcurrentArrivals:
    def test_staggered_arrivals_match_one_shot_submission(self, serve):
        # Same stream, trickled in over several event-loop turns with a
        # batch window open: different batch shapes, identical bytes.
        reqs = mixed_stream()

        async def staggered():
            async with QueryService(shards=2, batch_window=0.005) as svc:
                tasks = []
                for req in reqs:
                    tasks.append(asyncio.create_task(svc.submit(req)))
                    await asyncio.sleep(0.001)
                return [await t for t in tasks]

        trickled = payload_bytes(run_async(staggered()))
        assert trickled == payload_bytes(serve(reqs, shards=2)[0])
