"""ServiceTelemetry (histograms, event log, cid mint) + Prometheus text."""

from collections import deque

import pytest

from repro.obs import (
    HIST_SPECS,
    STATS_SCHEMA,
    FlightRecorder,
    ServiceTelemetry,
    render_prometheus,
)
from repro.trace.registry import registry_snapshot

pytestmark = pytest.mark.obs


def service_keys():
    return [k for k in registry_snapshot() if k.startswith("service.")]


# ----------------------------------------------------------------------
# Correlation-id mint
# ----------------------------------------------------------------------
def test_mint_is_monotone_per_domain():
    t = ServiceTelemetry()
    assert [t.mint("q"), t.mint("q"), t.mint("q")] == \
        ["q-000000", "q-000001", "q-000002"]
    # Domains count independently; ids never collide across domains.
    assert t.mint("m") == "m-000000"
    assert t.mint("b") == "b-000000"
    assert t.mint("d") == "d-000000"
    assert t.mint("q") == "q-000003"


def test_mint_rejects_unknown_domain():
    with pytest.raises(KeyError):
        ServiceTelemetry().mint("x")


# ----------------------------------------------------------------------
# Histograms: one instance cell per name, no registry copy
# ----------------------------------------------------------------------
def test_observe_feeds_the_instance_cell_only():
    t = ServiceTelemetry()
    t.observe("request_latency_s", 0.004)
    t.observe("request_latency_s", 0.008)
    t.observe("batch_size", 3)
    assert t.hists["request_latency_s"].count == 2
    assert t.hists["batch_size"].count == 1
    assert service_keys() == []


def test_clear_resets_instance_cells_not_registry():
    """Clearing empties the instance cells and the event ring; there is no
    registry copy left behind to aggregate across instances."""
    t = ServiceTelemetry()
    t.observe("request_latency_s", 0.004)
    t.emit("completed", cid="q-000000")
    t.clear()
    assert t.hists["request_latency_s"].count == 0
    assert len(t.events) == 0
    assert t.events.stats()["emitted"] == 1
    assert service_keys() == []


# ----------------------------------------------------------------------
# Events: one ring, read by the recorder
# ----------------------------------------------------------------------
def test_emit_is_retained_by_log_and_recorder():
    """The event log holds the one copy; the recorder's document reads it."""
    t = ServiceTelemetry()
    rec = t.emit("failed", cid="q-000000", code="worker_failed")
    assert t.events.events() == [rec]
    doc = FlightRecorder(t.events, deque()).document("manual")
    assert doc["events"] == [rec]
    assert doc["events"][0] is rec


def test_snapshot_sections():
    t = ServiceTelemetry()
    t.observe("queue_depth", 5)
    t.emit("completed", cid="q-000000")
    snap = t.snapshot()
    assert set(snap) == {"histograms", "events"}
    assert set(snap["histograms"]) == set(HIST_SPECS)
    assert snap["histograms"]["queue_depth"]["count"] == 1
    assert snap["events"]["emitted"] == 1


# ----------------------------------------------------------------------
# Prometheus rendering
# ----------------------------------------------------------------------
def snapshot_doc():
    t = ServiceTelemetry()
    for v in (0.002, 0.004, 0.064):
        t.observe("request_latency_s", v)
    return {
        "schema": STATS_SCHEMA,
        "uptime": {"wall_s": 1.5, "sim_time_served": 12.0},
        "counters": {"requests": 3, "responses": 3},
        "cache": {"hits": 2, "hit_rate": 0.5},
        **t.snapshot(),
    }


def test_render_prometheus_gauges_and_histogram_blocks():
    text = render_prometheus(snapshot_doc())
    assert text.startswith("# repro stats snapshot schema=repro.obs/2\n")
    assert "repro_service_counters_requests 3" in text
    assert "repro_service_uptime_wall_s 1.5" in text
    assert "repro_service_cache_hit_rate 0.5" in text
    # Histogram exposition: cumulative buckets ending at +Inf == count.
    assert "# TYPE repro_service_request_latency_s histogram" in text
    assert 'repro_service_request_latency_s_bucket{le="+Inf"} 3' in text
    assert "repro_service_request_latency_s_count 3" in text


def test_render_prometheus_is_pure():
    doc = snapshot_doc()
    assert render_prometheus(doc) == render_prometheus(doc)


def test_rendered_cumulative_counts_are_monotone():
    text = render_prometheus(snapshot_doc())
    cums = [int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_service_request_latency_s_bucket")]
    assert cums and cums == sorted(cums) and cums[-1] == 3
