"""Tier-1 end-to-end smoke: one in-process service serving a real mix.

Fast by construction (thread workers, small families): proves the whole
pipeline — submit, plan, shard, run, cache, respond — plus the
observability surface: provenance manifests on responses, batch/request
spans consumable by the trace exporters, instance counters kept once,
reconciled stats, and the ``python -m repro.service`` CLI entry point.
"""

import json

import pytest

from repro.service import QueryService, request
from repro.service.__main__ import build_stream, main
from repro.trace import load_trace_spans, registry_snapshot
from repro.trace.export import write_chrome_trace
from repro.trace.tracer import span_from_dict

from .conftest import mixed_stream, run_async

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def served():
    """One served mixed stream shared by the smoke assertions."""
    reqs = mixed_stream()

    async def go():
        async with QueryService(shards=2, cache_capacity=64) as svc:
            cold = await svc.submit_many(reqs)
            warm = await svc.submit_many(reqs)   # second pass: cache hits
        return reqs + reqs, cold + warm, svc

    return run_async(go())


class TestEndToEnd:
    def test_every_request_answered_in_order(self, served):
        reqs, resps, _ = served
        assert len(resps) == len(reqs)
        for req, resp in zip(reqs, resps):
            assert resp.payload["schema"] == "repro.service/1"
            assert resp.payload["algorithm"] == req.algorithm

    def test_responses_carry_a_provenance_manifest(self, served):
        _, resps, _ = served
        for resp in resps:
            assert resp.provenance["schema"] == "repro.provenance/1"
            assert resp.provenance["config"]["shards"] == 2

    def test_repeat_traffic_hits_the_cache(self, served):
        reqs, resps, svc = served
        hits = [r for r in resps if r.cache_hit]
        assert len(hits) >= len(reqs) // 2   # the whole second pass
        assert svc.cache.stats()["hits"] >= 1

    def test_meta_carries_serving_coordinates(self, served):
        _, resps, svc = served
        for resp in resps:
            assert 0 <= resp.meta["shard"] < svc.n_shards
            assert resp.meta["batch_size"] >= 1
            assert resp.meta["latency_s"] >= 0.0

    def test_stats_reconcile_exactly(self, served):
        reqs, _, svc = served
        s = svc.counters
        assert s.requests == len(reqs)
        assert s.responses == s.requests  # no faults in the smoke stream
        assert s.errors == 0
        assert s.cache_hit_requests + s.cold_requests + \
            s.coalesced_requests == s.responses
        assert s.dedup_hits >= 1          # the stream repeats requests
        assert svc.stats()["counters"] == s.to_dict()

    def test_simulated_charges_ride_the_response(self, served):
        _, resps, _ = served
        parallel = [r for r in resps if r.payload["backend"] != "serial"]
        assert parallel and all(r.payload["sim_time"] > 0 for r in parallel)


class TestObservability:
    def test_batch_spans_follow_the_tracer_schema(self, served):
        _, _, svc = served
        forest = svc.span_forest()
        assert forest
        for doc in forest:
            span = span_from_dict(doc)   # schema-compatible round-trip
            assert span.category == "batch"
            assert span.to_dict()["attrs"]["size"] >= 1
        sizes = [d["attrs"]["size"] for d in forest]
        assert sum(sizes) == svc.counters.responses

    def test_request_child_spans_carry_latency(self, served):
        _, _, svc = served
        children = [c for d in svc.span_forest() for c in d["children"]]
        assert children
        for child in children:
            assert child["cat"] == "request"
            assert child["attrs"]["latency_s"] >= 0.0

    def test_span_forest_exports_through_chrome_trace(self, served,
                                                      tmp_path):
        _, _, svc = served
        out = write_chrome_trace(tmp_path / "service_trace.json",
                                 svc.span_forest(),
                                 provenance=svc._provenance)
        doc = json.loads(out.read_text())
        assert doc["metadata"]["provenance"]["schema"] == \
            "repro.provenance/1"
        spans, _ = load_trace_spans(out)
        assert spans == svc.span_forest()

    def test_registry_counters_track_serving(self):
        """The registry keeps the host counters of the runs the service
        executes (movement plans, charge caches), but no serving counter:
        those live once, on the instance, and ``stats()["counters"]``
        still reconciles."""
        reqs = [request("steady_hull", kind="random", seed=9, n=5)] * 3

        async def go():
            async with QueryService() as svc:
                await svc.submit_many(reqs)
            return svc

        svc = run_async(go())
        snap = registry_snapshot()
        assert "movement_plans.misses" in snap
        assert [k for k in snap if k.startswith("service.")] == []
        counters = svc.stats()["counters"]
        assert counters["requests"] == counters["responses"] == 3
        assert counters["cache_hit_requests"] + counters["cold_requests"] \
            + counters["coalesced_requests"] == counters["responses"]

    def test_span_limit_drops_oldest_batches(self):
        reqs = [request("steady_hull", kind="random", seed=s, n=4)
                for s in range(4)]

        async def go():
            async with QueryService(span_limit=2, batching=False) as svc:
                await svc.submit_many(reqs)
            return svc

        svc = run_async(go())
        assert len(svc.span_forest()) == 2
        assert svc.counters.spans_dropped == 2


class TestCommandLine:
    def test_build_stream_is_deterministic(self):
        a = build_stream(50, 6, seed=3)
        b = build_stream(50, 6, seed=3)
        assert [r.key() for r in a] == [r.key() for r in b]
        assert [r.key() for r in build_stream(50, 6, seed=4)] != \
            [r.key() for r in a]

    def test_stream_is_zipf_skewed_toward_head_families(self):
        stream = build_stream(300, 10, seed=0)
        head = stream[0].family
        count_head = sum(1 for r in stream if r.family == head)
        assert count_head >= 300 // 10   # far above uniform share in law

    def test_cli_smoke_replay_serves_everything(self, capsys):
        assert main(["--queries", "40", "--families", "6",
                     "--wave", "16"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["counters"]["responses"] == 40
        assert stats["cache"]["lookups"] == stats["counters"]["batches"]
