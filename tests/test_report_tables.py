"""Tier-1 guard for Tables 2-4: the rendered report matches the committed
results.

``benchmarks/results/table{2,3,4}.txt`` hold the simulated costs the
benchmark suite last regenerated.  A charge drift in any Table 2-4 entry
point (or in the one-run, every-machine path that costs them) changes a
rendered cell, so every ``=== title ===`` block rendered here must equal
its committed block, trailing whitespace aside.
"""

import json
import pathlib

import pytest

from repro.report import run_captured
from repro.report.__main__ import main as report_main

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def _blocks(text: str) -> dict[str, list[str]]:
    """``{title: body lines}`` for every ``=== title ===`` block."""
    blocks: dict[str, list[str]] = {}
    body: list[str] | None = None
    for line in text.splitlines():
        line = line.rstrip()
        if line.startswith("=== ") and line.endswith(" ==="):
            body = blocks.setdefault(line[4:-4], [])
        elif body is not None and line:
            body.append(line)
    return blocks


@pytest.mark.parametrize("name", ["table2", "table3", "table4"])
def test_rendered_table_matches_committed_results(name):
    rendered = _blocks(run_captured(name))
    committed = _blocks((RESULTS / f"{name}.txt").read_text())
    assert rendered
    for title, body in rendered.items():
        assert title in committed, f"{name}: no committed block {title!r}"
        assert body == committed[title], f"{name}: {title!r} drifted"


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
