"""FlightRecorder unit contract: a postmortem view over the event log
and the span ring, bounded by the module's tail lengths."""

import json
from collections import deque

import pytest

from repro.obs import recorder as recorder_mod
from repro.obs.events import EventLog
from repro.obs.recorder import POSTMORTEM_SCHEMA, FlightRecorder

pytestmark = pytest.mark.obs


def make(event_capacity=4096, span_limit=4096):
    log = EventLog(event_capacity)
    spans = deque(maxlen=span_limit)
    return log, spans, FlightRecorder(log, spans)


def test_rings_are_bounded_with_exact_drop_counts(monkeypatch):
    """A dump holds what the log and the span ring still retain, cut to
    the last POSTMORTEM_EVENTS / POSTMORTEM_SPANS; the drop count is the
    event log's own."""
    log, spans, rec = make(event_capacity=3, span_limit=4)
    for i in range(6):
        log.emit("completed", cid=f"q-{i:06d}")
    for i in range(5):
        spans.append({"name": f"batch:{i}"})
    doc = rec.document("manual")
    assert [e["seq"] for e in doc["events"]] == [3, 4, 5]
    assert [s["name"] for s in doc["spans"]] == \
        ["batch:1", "batch:2", "batch:3", "batch:4"]
    assert log.stats()["dropped"] == 3
    monkeypatch.setattr(recorder_mod, "POSTMORTEM_EVENTS", 2)
    monkeypatch.setattr(recorder_mod, "POSTMORTEM_SPANS", 2)
    doc = rec.document("manual")
    assert [e["seq"] for e in doc["events"]] == [4, 5]
    assert [s["name"] for s in doc["spans"]] == ["batch:3", "batch:4"]


def test_zero_capacity_records_nothing():
    log, spans, rec = make(event_capacity=0, span_limit=0)
    log.emit("completed")
    spans.append({"name": "x"})
    doc = rec.document("manual")
    assert doc["events"] == [] and doc["spans"] == []


def test_document_shape_and_provenance():
    log, _, rec = make()
    log.emit("failed", cid="q-000000")
    doc = rec.document("worker_death", context={"shard": 1},
                       stats={"counters": {"errors": 1}})
    assert set(doc) == {"schema", "reason", "context", "events", "spans",
                        "stats", "provenance"}
    assert doc["schema"] == POSTMORTEM_SCHEMA
    assert doc["reason"] == "worker_death"
    assert doc["context"] == {"shard": 1}
    assert doc["events"][0]["cid"] == "q-000000"
    assert doc["stats"]["counters"]["errors"] == 1
    # Provenance is stamped at document time (the only timestamp).
    assert doc["provenance"]["schema"] == "repro.provenance/1"
    assert "git_sha" in doc["provenance"]


def test_dump_writes_loadable_json_and_counts(tmp_path):
    """Each dump writes one loadable file; the service, not the view,
    counts dumps (``counters.postmortems``)."""
    log, _, rec = make()
    log.emit("failed")
    path = rec.dump(tmp_path / "deep" / "pm.json", "service_error",
                    context={"batch": "b-000000"})
    doc = json.loads(path.read_text())
    assert doc["schema"] == POSTMORTEM_SCHEMA
    assert doc["context"]["batch"] == "b-000000"
    assert doc["events"] == log.events()
    rec.dump(tmp_path / "pm2.json", "service_error")
    assert sorted(p.name for p in tmp_path.rglob("*.json")) == \
        ["pm.json", "pm2.json"]


def test_clear_empties_rings_but_keeps_accounting():
    log, spans, rec = make(event_capacity=1)
    log.emit("completed")
    log.emit("completed")
    spans.append({"name": "x"})
    log.clear()
    spans.clear()
    doc = rec.document("manual")
    assert doc["events"] == [] and doc["spans"] == []
    assert log.stats()["dropped"] == 1
