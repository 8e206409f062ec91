"""Tier-1 gate: the whole source tree passes the invariant checker.

This is the enforcement point of ``docs/static_analysis.md``: any
non-baselined RPR finding anywhere under ``src/repro`` (and in the
benchmark/example trees) fails tier-1 *before* a corrupted golden ever
gets a chance to.  It shares the exit-code contract with
``python -m repro.check`` by driving the same ``main()`` entry point.
"""

import json
from pathlib import Path

import pytest

from repro.check import load_baseline, run_check
from repro.check.__main__ import DEFAULT_BASELINE, DEFAULT_ROOT, main

pytestmark = pytest.mark.check

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def src_report():
    """One whole-program analysis of ``src/repro`` under the committed
    baseline, shared by every test that only reads its result."""
    return run_check(DEFAULT_ROOT, baseline=load_baseline(DEFAULT_BASELINE))


def test_src_tree_clean_via_shared_entry_point(capsys):
    """The CI command and the pytest gate are one entry point, rc 0."""
    rc = main(["--json", "--strict-baseline", str(DEFAULT_ROOT)])
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"], "\n".join(
        f'{f["path"]}:{f["line"]}: {f["rule"]} {f["message"]}'
        for f in doc["findings"] if not f["suppressed_by"])
    assert rc == 0


def test_src_tree_covers_every_package(src_report):
    seen = {f.split("/")[1] for f in
            (p.relative_to(DEFAULT_ROOT.parent).as_posix()
             for p in DEFAULT_ROOT.rglob("*.py"))
            if "/" in f}
    # Sanity: the walk really visited the accounting-critical layers.
    assert {"machines", "ops", "core", "verify", "trace", "check"} <= seen
    assert src_report.files_checked >= 90


def test_benchmarks_and_examples_clean():
    for tree in (REPO / "benchmarks", REPO / "examples"):
        report = run_check(tree)
        assert report.ok, report.render()


def test_every_inline_suppression_carries_reason(src_report):
    assert src_report.suppressed, "expected the documented noqa sites"
    for f in src_report.suppressed:
        assert f.suppress_reason and len(f.suppress_reason) > 10, f.render()


def test_committed_baseline_is_empty_or_reasoned(src_report):
    entries = load_baseline(DEFAULT_BASELINE)
    for fingerprint, reason in entries.items():
        assert reason.strip(), fingerprint
    # Nothing grandfathered today; loosening this requires a reason per
    # entry (load_baseline enforces) and a matching finding (no stale).
    assert not src_report.stale_baseline
