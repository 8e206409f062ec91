"""``python -m repro.report postmortem`` — the dump renderer CLI."""

import json

import pytest

from collections import deque

from repro.obs.events import EventLog
from repro.obs.recorder import FlightRecorder
from repro.report.postmortem import load_postmortem, main, render_postmortem

pytestmark = pytest.mark.obs


@pytest.fixture
def dump(tmp_path):
    log = EventLog()
    log.emit("request_received", cid="q-000000", algorithm="envelope")
    log.emit("batched", cid="q-000000", batch="b-000000")
    log.emit("dispatched", cid="b-000000", cids=["q-000000"], shard=0,
             attempt=1)
    log.emit("failed", cid="q-000000", batch="b-000000",
             code="worker_failed")
    log.emit("completed", cid="q-000001")
    return FlightRecorder(log, deque()).dump(
        tmp_path / "pm.json", "service_error",
        context={"batch": "b-000000", "shard": 0, "code": "worker_failed",
                 "cids": ["q-000000"]},
        stats={"counters": {"requests": 2, "responses": 1, "errors": 1,
                            "retries": 0, "batches": 1},
               "events": log.stats()})


def test_render_reconstructs_the_failing_chain(dump):
    text = render_postmortem(load_postmortem(dump))
    assert "reason=service_error" in text
    assert "event chain [q-000000] (4 event(s))" in text
    for event in ("request_received", "batched", "dispatched", "failed"):
        assert event in text
    # The bystander request's chain is not rendered.
    assert "q-000001" not in text
    assert "requests=2" in text and "errors=1" in text


def test_render_is_pure(dump):
    doc = load_postmortem(dump)
    assert render_postmortem(doc) == render_postmortem(doc)


def test_cid_flag_selects_one_chain(dump, capsys):
    assert main([str(dump), "--cid", "q-000001"]) == 0
    out = capsys.readouterr().out
    assert "event chain [q-000001] (1 event(s))" in out
    assert "q-000000" not in out.split("event chain")[1]


def test_main_renders_and_exits_zero(dump, capsys):
    assert main([str(dump)]) == 0
    assert "postmortem: reason=service_error" in capsys.readouterr().out


def test_missing_and_malformed_files_are_usage_errors(tmp_path, capsys):
    assert main([str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "repro.postmortem/999",
                               "reason": "x"}))
    assert main([str(bad)]) == 2
    not_pm = tmp_path / "not_pm.json"
    not_pm.write_text(json.dumps({"hello": 1}))
    assert main([str(not_pm)]) == 2


def test_report_cli_dispatches_postmortem(dump, capsys):
    from repro.report.__main__ import main as report_main
    assert report_main(["postmortem", str(dump)]) == 0
    assert "reason=service_error" in capsys.readouterr().out
