"""Operational telemetry end to end: cids, events, stats, postmortems.

The tentpole contract of the observability layer, asserted on a live
service: correlation ids mint at submit and thread through batches,
worker payloads, spans, and every lifecycle event; the ``repro.obs/1``
stats snapshot reconciles exactly with the serving counters; telemetry
never perturbs a payload byte; and a degradation writes a postmortem
whose event tail reconstructs the failing request's full chain.
"""

import json

import pytest

from repro.obs import STATS_SCHEMA
from repro.report.postmortem import load_postmortem, render_postmortem
from repro.service import QueryService, ServiceError, mutation, request
from repro.service.__main__ import main as service_main
from repro.trace.export import load_trace_spans, write_chrome_trace

from .conftest import mixed_stream, run_async

pytestmark = [pytest.mark.service, pytest.mark.obs]


@pytest.fixture(scope="module")
def served():
    """One mixed stream served cold+warm, with full telemetry retained."""
    reqs = mixed_stream()

    async def go():
        async with QueryService(shards=2, cache_capacity=64) as svc:
            cold = await svc.submit_many(reqs)
            warm = await svc.submit_many(reqs)
        return reqs + reqs, cold + warm, svc

    return run_async(go())


class TestCorrelationIds:
    def test_cids_are_minted_in_arrival_order(self, served):
        reqs, resps, _ = served
        cids = [r.meta["cid"] for r in resps]
        assert cids == [f"q-{i:06d}" for i in range(len(reqs))]

    def test_every_request_has_a_complete_lifecycle_chain(self, served):
        _, resps, svc = served
        for resp in resps:
            chain = svc.obs.events.for_cid(resp.meta["cid"])
            names = [rec["event"] for rec in chain]
            assert names[0] == "request_received"
            assert "batched" in names and "completed" in names
            # dispatched is batch-scoped: present iff the batch crossed
            # into a worker (cache-hit batches never dispatch).
            if not resp.meta["cache_hit"]:
                assert "dispatched" in names
            # The chain is seq-ordered by construction.
            seqs = [rec["seq"] for rec in chain]
            assert seqs == sorted(seqs)

    def test_batched_event_names_the_batch_of_the_dispatch(self, served):
        _, resps, svc = served
        events = svc.obs.events.events()
        for resp in resps:
            if resp.meta["cache_hit"]:
                continue
            cid = resp.meta["cid"]
            batched = [r for r in events
                       if r["event"] == "batched"
                       and cid in r.get("cids", ())]
            assert len(batched) == 1
            bid = batched[0]["cid"]
            assert bid.startswith("b-")
            dispatched = [r for r in events
                          if r["event"] == "dispatched" and r["cid"] == bid]
            assert dispatched and all(cid in r["cids"] for r in dispatched)

    def test_request_spans_carry_the_cid(self, served):
        _, resps, svc = served
        span_cids = {c["attrs"]["cid"]
                     for span in svc.span_forest()
                     for c in span["children"]}
        assert {r.meta["cid"] for r in resps} <= span_cids


class TestStatsSnapshot:
    def test_schema_and_sections(self, served):
        _, _, svc = served
        snap = svc.stats()
        assert snap["schema"] == STATS_SCHEMA
        assert set(snap) == {"schema", "uptime", "counters", "cache",
                             "dynamic", "pools", "histograms", "events"}

    def test_histograms_reconcile_with_counters(self, served):
        _, resps, svc = served
        snap = svc.stats()
        hists = snap["histograms"]
        assert hists["request_latency_s"]["count"] == len(resps)
        assert hists["batch_size"]["count"] == snap["counters"]["batches"]
        assert hists["batch_size"]["sum"] == \
            snap["counters"]["batched_requests"]
        assert hists["queue_depth"]["count"] > 0
        assert hists["worker_turnaround_s"]["count"] > 0

    def test_uptime_freezes_at_stop_and_sim_time_accumulates(self, served):
        _, _, svc = served
        snap = svc.stats()
        assert snap["uptime"]["wall_s"] > 0
        assert snap["uptime"]["wall_s"] == svc.uptime_s()  # frozen
        # Cold runs executed simulated work; the simulated clock total
        # rides the snapshot without ever feeding a payload.
        assert snap["uptime"]["sim_time_served"] > 0

    def test_event_accounting_reconciles(self, served):
        _, resps, svc = served
        stats = svc.obs.events.stats()
        assert stats["dropped"] == 0
        completed = [r for r in svc.obs.events.events()
                     if r["event"] == "completed"]
        assert len(completed) == len(resps)

    def test_json_serialisable(self, served):
        _, _, svc = served
        doc = json.loads(json.dumps(svc.stats()))
        assert doc["schema"] == STATS_SCHEMA


class TestTelemetryNeutrality:
    def test_payloads_identical_across_telemetry_configs(self):
        """Same stream, wildly different telemetry settings → same bytes.

        The payload is a pure function of (run key, query); cids live in
        ``meta`` and events/histograms are host-side only, so shrinking
        every ring to nearly nothing must not move a payload byte.
        """
        reqs = mixed_stream()

        def serve_with(**kwargs):
            async def go():
                async with QueryService(shards=2, cache_capacity=64,
                                        **kwargs) as svc:
                    return await svc.submit_many(reqs)
            return run_async(go())

        plain = serve_with()
        tiny = serve_with(event_capacity=2, span_limit=1)
        assert [json.dumps(r.payload, sort_keys=True) for r in plain] == \
            [json.dumps(r.payload, sort_keys=True) for r in tiny]

    def test_payload_sim_charges_unchanged_by_telemetry(self, served):
        _, resps, _ = served
        parallel = [r for r in resps if r.payload["backend"] != "serial"]
        assert parallel
        assert all(r.payload["sim_time"] > 0 for r in parallel)

    def test_events_jsonl_sink_through_the_service(self, tmp_path):
        path = tmp_path / "events.jsonl"
        reqs = mixed_stream()[:4]

        async def go():
            async with QueryService(shards=1, cache_capacity=16,
                                    events_path=path) as svc:
                await svc.submit_many(reqs)
        run_async(go())
        lines = [json.loads(s) for s in path.read_text().splitlines()]
        assert len(lines) >= 2 * len(reqs)
        assert all("seq" in rec and "event" in rec for rec in lines)


class TestMutationDynamicTelemetry:
    @pytest.fixture(scope="class")
    def mutated(self):
        async def go():
            async with QueryService(shards=1, cache_capacity=32) as svc:
                await svc.mutate(mutation("a", "create", op="min",
                                          kind="random", seed=3, n=5))
                r1 = await svc.submit_dynamic("a")
                r2 = await svc.submit_dynamic("a")          # cache hit
                ins = await svc.mutate(
                    mutation("a", "insert", coeffs=(0.5, -1.0)))
                r3 = await svc.submit_dynamic("a")
            return svc, (r1, r2, r3), ins

        return run_async(go())

    def test_mutation_and_dynamic_cids_have_own_domains(self, mutated):
        svc, reads, ins = mutated
        assert ins.meta["cid"].startswith("m-")
        assert [r.meta["cid"] for r in reads] == \
            ["d-000000", "d-000001", "d-000002"]

    def test_mutation_events_and_invalidation(self, mutated):
        svc, _, ins = mutated
        events = svc.obs.events.events()
        applied = [r for r in events if r["event"] == "mutation_applied"]
        assert [r["action"] for r in applied] == ["create", "insert"]
        assert applied[-1]["cid"] == ins.meta["cid"]
        # The insert evicted family a's cached key → one invalidation
        # event naming the family and the count.
        invalidated = [r for r in events
                       if r["event"] == "cache_invalidated"]
        assert len(invalidated) == 1
        assert invalidated[0]["name"] == "a"
        assert invalidated[0]["cid"] == ins.meta["cid"]

    def test_mutation_dynamic_spans_export_with_cids(self, mutated,
                                                     tmp_path):
        """Satellite contract: mutation/dynamic spans survive the Chrome
        trace round-trip with cids matching the event log."""
        svc, reads, ins = mutated
        spans = svc.span_forest()
        by_cat = {}
        for s in spans:
            by_cat.setdefault(s["cat"], []).append(s)
        assert {"mutation", "dynamic"} <= set(by_cat)
        path = write_chrome_trace(
            tmp_path / "trace.json", spans,
            histograms=svc.obs.histogram_dicts())
        loaded, doc = load_trace_spans(path)
        assert loaded == spans                    # lossless embedding
        assert doc["reproHistograms"]["request_latency_s"]["kind"] == \
            "log2"
        event_cids = {r["cid"] for r in svc.obs.events.events()}
        for span in by_cat["mutation"] + by_cat["dynamic"]:
            cid = span["attrs"]["cid"]
            assert cid in event_cids
        dynamic_cids = {s["attrs"]["cid"] for s in by_cat["dynamic"]}
        assert {r.meta["cid"] for r in reads} == dynamic_cids


class TestPostmortem:
    def test_degradation_writes_a_renderable_postmortem(self, tmp_path):
        async def go():
            async with QueryService(shards=1, retries=0,
                                    postmortem_dir=tmp_path) as svc:
                svc.inject_fault("raise")
                with pytest.raises(ServiceError):
                    await svc.submit(request("envelope", kind="random",
                                             seed=2, n=4))
            return svc

        svc = run_async(go())
        assert svc.counters.postmortems == 1
        assert svc.last_postmortem is not None
        doc = load_postmortem(svc.last_postmortem)
        assert doc["reason"] == "service_error"
        assert doc["context"]["code"] == "worker_failed"
        cid = doc["context"]["cids"][0]
        chain = [r["event"] for r in doc["events"]
                 if r.get("cid") == cid or cid in (r.get("cids") or ())]
        # The full correlated story of the failing request is in the dump.
        assert chain[0] == "request_received"
        assert "batched" in chain and "dispatched" in chain
        assert chain[-1] == "failed"
        text = render_postmortem(doc)
        assert f"event chain [{cid}]" in text
        assert "reason=service_error" in text

    def test_no_postmortem_dir_means_no_file_drops(self):
        async def go():
            async with QueryService(shards=1, retries=0) as svc:
                svc.inject_fault("raise")
                with pytest.raises(ServiceError):
                    await svc.submit(request("envelope", kind="random",
                                             seed=2, n=4))
            return svc

        svc = run_async(go())
        assert svc.counters.postmortems == 0
        assert svc.last_postmortem is None
        # The rings are still live for the manual escape hatch.
        assert any(r["event"] == "failed"
                   for r in svc.obs.events.events())

    def test_manual_dump_escape_hatch(self, tmp_path, serve):
        resps, svc = serve(mixed_stream()[:3])
        path = svc.dump_postmortem(tmp_path / "manual.json")
        doc = load_postmortem(path)
        assert doc["reason"] == "manual"
        assert doc["stats"]["counters"]["responses"] == len(resps)
        # Manual dumps count like automatic ones.
        assert doc["stats"]["counters"]["postmortems"] == 1
        assert svc.counters.postmortems == 1

    def test_postmortem_holds_exactly_the_event_log_tail(self, tmp_path):
        """A dump reads the service's own rings: with a 2-event log it
        holds exactly the events the log still retains, same seqs."""
        async def go():
            async with QueryService(shards=1, retries=0, event_capacity=2,
                                    span_limit=1,
                                    postmortem_dir=tmp_path) as svc:
                await svc.submit(request("envelope", kind="random",
                                         seed=3, n=4))
                svc.inject_fault("raise")
                with pytest.raises(ServiceError):
                    await svc.submit(request("envelope", kind="random",
                                             seed=2, n=4))
            return svc

        svc = run_async(go())
        doc = load_postmortem(svc.last_postmortem)
        retained = [r["seq"] for r in svc.obs.events.events()]
        assert len(retained) == 2
        assert [r["seq"] for r in doc["events"]] == retained
        assert doc["stats"]["events"]["dropped"] == \
            doc["stats"]["events"]["emitted"] - 2
        assert doc["spans"] == svc.span_forest()
        assert len(doc["spans"]) == 1


class TestCli:
    def test_smoke_stats_embeds_snapshot(self, capsys):
        rc = service_main(["--queries", "24", "--families", "6",
                           "--wave", "8"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["schema"] == STATS_SCHEMA
        assert out["histograms"]["request_latency_s"]["count"] == 24
        assert out["counters"]["responses"] == 24

    def test_smoke_fault_writes_postmortem(self, tmp_path, capsys):
        rc = service_main(["--queries", "16", "--families", "4",
                           "--wave", "8", "--fault", "raise",
                           "--postmortem-dir", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["counters"]["errors"] > 0
        assert out["counters"]["postmortems"] >= 1
        dumps = sorted(tmp_path.glob("postmortem-*.json"))
        assert len(dumps) == out["counters"]["postmortems"]
        doc = load_postmortem(dumps[0])
        assert doc["reason"] == "service_error"
        assert render_postmortem(doc)  # renders without raising

    def test_stats_subcommand_prom_exposition(self, capsys):
        rc = service_main(["--queries", "12", "--families", "4",
                           "--wave", "6", "--prom"])
        text = capsys.readouterr().out
        assert rc == 0
        assert text.startswith(
            f"# repro stats snapshot schema={STATS_SCHEMA}")
        assert "repro_service_counters_responses 12" in text
        assert 'repro_service_request_latency_s_bucket{le="+Inf"} 12' \
            in text
