"""CLI contract of ``python -m repro.check``.

Exit codes are the shared ``verify``-style contract consumed by CI and
the tier-1 gate: 0 clean, 1 findings, 2 usage/input error.  The JSON
output is the machine-readable face of the same report object the gate
uses in-process.
"""

import json
from pathlib import Path

import pytest

from repro.check.__main__ import main

pytestmark = pytest.mark.check

FIXTURES = Path(__file__).parent / "fixtures"


def test_clean_tree_exits_zero(capsys):
    rc = main([str(FIXTURES / "rpr001" / "core" / "good_clock.py")])
    assert rc == 0
    assert "clean" in capsys.readouterr().out


def test_findings_exit_one_with_locations(capsys):
    rc = main([str(FIXTURES / "rpr001")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "bad_clock.py:9" in out and "RPR001" in out


def test_bad_path_exits_two(capsys):
    rc = main(["definitely/not/a/path.py"])
    assert rc == 2
    assert "no such path" in capsys.readouterr().err


def test_json_output_schema(capsys):
    rc = main(["--json", str(FIXTURES / "rpr002")])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["ok"] is False
    assert doc["counts"] == {"RPR002": 6}
    assert {"RPR001", "RPR002", "RPR003", "RPR004", "RPR005"} <= set(
        doc["rules"])
    finding = doc["findings"][0]
    assert {"path", "line", "col", "rule", "message", "source"} <= set(
        finding)


def test_select_restricts_rules(capsys):
    rc = main(["--json", "--select", "RPR004,RPR005",
               str(FIXTURES / "rpr002")])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["counts"] == {}


def test_select_unknown_rule_exits_two(capsys):
    # RPR001F is no rule: RPR001's dataflow clause reports as RPR001.
    for rid in ("RPR123", "RPR001F"):
        rc = main(["--select", rid, str(FIXTURES / "rpr002")])
        assert rc == 2
        assert "unknown rule" in capsys.readouterr().err


def test_list_rules(capsys):
    # One registry: every listed id is one a report documents (and a
    # finding can carry), exactly RPR001..RPR012.
    rc = main(["--list-rules"])
    listed = {line.split()[0]
              for line in capsys.readouterr().out.splitlines()}
    assert rc == 0
    main(["--json", "--no-baseline", str(FIXTURES / "flow")])
    documented = set(json.loads(capsys.readouterr().out)["rules"])
    assert listed == documented == {f"RPR{i:03d}" for i in range(1, 13)}


def test_write_then_apply_baseline_roundtrip(tmp_path, capsys):
    base = tmp_path / "baseline.json"
    assert main(["--write-baseline", str(base),
                 str(FIXTURES / "rpr003")]) == 0
    doc = json.loads(base.read_text())
    assert len(doc["entries"]) == 2
    assert all(e["reason"] for e in doc["entries"])

    capsys.readouterr()
    rc = main(["--baseline", str(base), str(FIXTURES / "rpr003")])
    assert rc == 0
    assert "clean" in capsys.readouterr().out


def test_baseline_reasons_are_mandatory(tmp_path, capsys):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps({
        "version": 1,
        "entries": [{"fingerprint": "RPR001:x.py:src:0", "reason": ""}],
    }))
    rc = main(["--baseline", str(bad), str(FIXTURES / "rpr001")])
    assert rc == 2
    assert "reason" in capsys.readouterr().err


def test_stale_baseline_reported_and_strict(tmp_path, capsys):
    base = tmp_path / "baseline.json"
    base.write_text(json.dumps({
        "version": 1,
        "entries": [{"fingerprint": "RPR001:gone.py:whatever:0",
                     "reason": "kept for the stale-entry test"}],
    }))
    target = str(FIXTURES / "rpr001" / "core" / "good_clock.py")
    rc = main(["--baseline", str(base), target])
    assert rc == 0
    assert "stale" in capsys.readouterr().out
    assert main(["--baseline", str(base), "--strict-baseline", target]) == 1


def test_malformed_baseline_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "baseline.json"
    bad.write_text("{not json")
    rc = main(["--baseline", str(bad), str(FIXTURES / "rpr001")])
    assert rc == 2
