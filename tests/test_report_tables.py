"""Tier-1 guard for Tables 2-4: the rendered report matches the golden text.

``benchmarks/perf/golden/<name>.txt`` holds each experiment's report text,
the text ``pytest benchmarks/`` and the repository benchmark check.  A
charge drift in any Table 2-4 entry point (or in the one-run,
every-machine path that costs them) changes a rendered cell, so the text
rendered here must equal its golden file byte for byte.
"""

import json
import pathlib

import pytest

from repro.report import EXPERIMENTS, run_captured
from repro.report.__main__ import main as report_main

GOLDEN = (pathlib.Path(__file__).resolve().parents[1]
          / "benchmarks" / "perf" / "golden")


def test_golden_files_name_the_experiments():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == \
        sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", ["table2", "table3", "table4"])
def test_rendered_table_matches_committed_results(name):
    assert run_captured(name) + "\n" == \
        (GOLDEN / f"{name}.txt").read_text(), f"{name} drifted"


def test_traced_report_cli_writes_a_valid_trace(tmp_path, capsys):
    path = tmp_path / "tables.json"
    assert report_main(["--trace", str(path), "table2", "table3",
                        "table4"]) == 0
    assert "trace written" in capsys.readouterr().out
    doc = json.loads(path.read_text())
    roots = doc["reproSpans"]
    assert [r["name"] for r in roots] == ["table2", "table3", "table4"]
    for root in roots:
        assert root["children"], root["name"]
        assert root["sim"]["time"] > 0
    assert doc["traceEvents"]
