"""Smoke test of the benchmark: every workload, small, untraced and traced.

Run with ``pytest benchmarks/perf``.  Each workload runs at about 1/50 of
its set-up work for one second, once with ``--trace 0`` and once with
``--trace 1``, and all of them once more in one run without
``--workload``.  The test checks the output contract (every declared
metric printed with its unit and sample count, the final JSON line),
that every correctness gate passed, and that the written trace is well
formed.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def run_bench(cwd: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/perf/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def load_spans(path: pathlib.Path) -> list[dict]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.trace.export import flatten_spans, load_trace_spans

    spans, _ = load_trace_spans(path)
    return flatten_spans(spans)


def check_trace(path: pathlib.Path, workload: str) -> None:
    spans = load_spans(path)
    assert spans, "the traced run recorded no spans"
    eps = 1e-9
    for span in spans:
        a = span["attrs"]
        assert a["start_s"] <= a["end_s"]
        if a["self_s"] is not None:
            assert a["self_s"] <= span["wall"] + eps
            assert a["self_s"] >= -eps
        for child in span["children"]:
            c = child["attrs"]
            assert a["start_s"] - eps <= c["start_s"]
            assert c["end_s"] <= a["end_s"] + eps
            assert c["thread"] == a["thread"]
    clients = [s for s in spans if s["name"].startswith("client.")]
    if workload == "offline_report":
        assert not clients
        assert any(s["name"] == "report.run_captured" for s in spans)
        return
    assert clients
    by_cid: dict[str, list[dict]] = {}
    for span in spans:
        if not span["name"].startswith("client."):
            for cid in span["attrs"]["cids"]:
                by_cid.setdefault(cid, []).append(span)
    for client in clients:
        (cid,) = client["attrs"]["cids"]
        chain = by_cid.get(cid)
        assert chain, f"no server-side span carries {cid}"
        lo, hi = client["attrs"]["start_s"], client["attrs"]["end_s"]
        for span in chain:
            assert lo - eps <= span["attrs"]["start_s"]
            assert span["attrs"]["end_s"] <= hi + eps


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(tmp_path, workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(SEED),
                     "--seconds", "1", "--trace", str(trace), "--smoke",
                     "--trace-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    printed = {line.split()[1]: line for line in lines
               if line.startswith(workload + " ")}
    for m in declared:
        name, unit = m["name"], m["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert re.fullmatch(
            rf"{workload} {re.escape(name)} \S+ {re.escape(unit)} "
            rf"\(n=\d+\)", printed[name]), printed.get(name)
        if not trace:
            assert result["metrics"][name]["value"] > 0, name
    if trace:
        check_trace(tmp_path / f"trace-{workload}-{SEED}.json", workload)


def test_every_workload_in_one_run():
    """Without --workload the summary line covers every workload."""
    proc = run_bench(ROOT, "--seed", str(SEED), "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == WORKLOADS
    names = [m["name"] for m in SPEC["end_to_end"]]
    for workload, metrics in result["metrics"].items():
        assert list(metrics) == names, workload
        assert all(m["value"] > 0 for m in metrics.values()), workload


def test_refuses_without_program(tmp_path):
    """With only the benchmark's own files there is nothing to measure."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
