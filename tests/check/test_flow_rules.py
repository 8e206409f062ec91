"""Interprocedural (whole-program) rule tests: exact rule ids and lines.

The ``flow/`` fixtures are the acceptance cases for the taint engine:
each bad fixture is a cross-function flow that only the program clause
of RPR001/RPR002 can see, caught at an exact (file, line, rule).
``rpr010``/``rpr011``/``rpr012`` cover the async-race and cross-process
rules the same way.
"""

from pathlib import Path

import pytest

from repro.check import RULES, Rule, run_check

pytestmark = pytest.mark.check

FIXTURES = Path(__file__).parent / "fixtures"


def findings_of(subdir):
    report = run_check(FIXTURES / subdir)
    assert not report.parse_errors
    return report


def triples(report):
    return sorted((f.path.rsplit("/", 1)[-1], f.line, f.rule)
                  for f in report.active)


# ----------------------------------------------------------------------
# RPR010 await-straddled writes
# ----------------------------------------------------------------------
def test_rpr010_bad_fixture_exact_findings():
    report = findings_of("rpr010")
    assert triples(report) == [
        ("bad_async.py", 16, "RPR010"),  # self.pending.pop() after await
        ("bad_async.py", 23, "RPR010"),  # _DEPTH -= 1 after await
    ]


def test_rpr010_good_fixture_clean():
    report = run_check(FIXTURES / "rpr010" / "service" / "good_async.py")
    assert report.ok and not report.findings


# ----------------------------------------------------------------------
# RPR011 check-then-act across a suspension point
# ----------------------------------------------------------------------
def test_rpr011_bad_fixture_exact_findings():
    report = findings_of("rpr011")
    assert triples(report) == [
        ("bad_cache.py", 10, "RPR011"),  # cache.get -> await -> cache.put
        ("bad_cache.py", 17, "RPR011"),  # `in` check -> await -> store
    ]


def test_rpr011_good_fixture_clean():
    report = run_check(FIXTURES / "rpr011" / "service" / "good_cache.py")
    assert report.ok and not report.findings


# ----------------------------------------------------------------------
# RPR012 cross-process state
# ----------------------------------------------------------------------
def test_rpr012_bad_fixture_exact_findings():
    report = findings_of("rpr012")
    assert triples(report) == [
        ("bad_workers.py", 16, "RPR012"),  # _TOTALS.append in worker
        ("bad_workers.py", 20, "RPR012"),  # _LAST[0] = ... in worker
        ("bad_workers.py", 25, "RPR012"),  # global _COUNT += 1 in worker
    ]


def test_rpr012_message_names_parent_reader():
    report = findings_of("rpr012")
    assert all("stats" in f.message for f in report.active)


def test_rpr012_good_fixture_clean():
    report = run_check(FIXTURES / "rpr012" / "service" / "good_workers.py")
    assert report.ok and not report.findings


# ----------------------------------------------------------------------
# Cross-function taint: the acceptance cases
# ----------------------------------------------------------------------
def test_flow_fixture_exact_findings():
    report = findings_of("flow")
    assert triples(report) == [
        ("accflow.py", 14, "RPR002"),   # set elements -> += accumulation
        ("clockio.py", 16, "RPR001"),   # perf_counter -> json payload
        ("rngflow.py", 21, "RPR002"),   # unseeded draws -> json payload
    ]


def test_unconverged_fixpoint_fails_loudly(monkeypatch):
    # accflow.py's first round carries the set taint out of weights(),
    # so one round cannot confirm a fixed point.
    monkeypatch.setattr("repro.check.flow.taint.MAX_FIXPOINT_ITERS", 1)
    with pytest.raises(RuntimeError, match="no fixed point in 1 rounds"):
        run_check(FIXTURES / "flow" / "machines" / "accflow.py")


def test_flow_findings_carry_the_call_chain():
    report = findings_of("flow")
    by_file = {f.path.rsplit("/", 1)[-1]: f.message for f in report.active}
    # The message names the origin file:line and at least one hop.
    assert "clockio.py:" in by_file["clockio.py"]
    assert "via" in by_file["rngflow.py"]


def test_unrelated_select_leaves_flow_rules_dormant():
    # Selecting a rule with no dataflow clause keeps the taint findings
    # quiet: selection gates program clauses exactly like file clauses.
    report = run_check(FIXTURES / "flow", select=["RPR003"])
    assert report.findings == []


def test_file_only_select_skips_the_call_graph(monkeypatch):
    # RPR003 has no whole-program clause, so checking only it must not
    # build the call graph: the findings come from the file clause alone.
    import repro.check.engine as engine

    want = run_check(FIXTURES / "rpr003", select=["RPR003"]).findings
    assert want

    def refuse(*args, **kwargs):
        raise AssertionError("call graph built for a file-only selection")

    monkeypatch.setattr(engine, "build_program", refuse)
    assert run_check(FIXTURES / "rpr003", select=["RPR003"]).findings == want
    with pytest.raises(AssertionError):
        run_check(FIXTURES / "rpr003", select=["RPR001"])


def test_flow_good_fixtures_clean():
    for rel in ("service/goodio.py", "machines/goodacc.py"):
        report = run_check(FIXTURES / "flow" / rel)
        assert report.ok and not report.findings, rel


# ----------------------------------------------------------------------
# Suppression contract: flow findings obey noqa like file findings
# ----------------------------------------------------------------------
def test_noqa_suppresses_flow_finding(tmp_path):
    src = (FIXTURES / "flow" / "service" / "clockio.py").read_text()
    lines = src.splitlines()
    lines[15] += "  # repro: noqa RPR001 -- demo payload, not charged"
    target = tmp_path / "service"
    target.mkdir()
    (target / "clockio.py").write_text("\n".join(lines) + "\n")
    report = run_check(tmp_path)
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["RPR001"]


def test_program_select_accepts_emitted_id():
    # --select RPR001 runs both of the rule's clauses, file and dataflow.
    report = run_check(FIXTURES / "flow", select=["RPR001"])
    assert [(f.line, f.rule) for f in report.active] == [(16, "RPR001")]


# ----------------------------------------------------------------------
# Registry documentation
# ----------------------------------------------------------------------
def test_program_rules_registered_with_docs():
    # RPR010/011 are file-local (one async def at a time); RPR012 is
    # whole-program only; RPR001/RPR002 carry both clauses.
    program = {rid for rid, rule in RULES.items()
               if type(rule).check_program is not Rule.check_program}
    assert program == {"RPR001", "RPR002", "RPR012"}
    for rid in program:
        rule = RULES[rid]
        assert rule.name and rule.summary and rule.rationale


def test_report_to_dict_documents_program_rules():
    report = run_check(FIXTURES / "flow")
    rules = report.to_dict()["rules"]
    assert {"RPR001", "RPR002", "RPR010", "RPR012"} <= set(rules)
    assert all(rules[rid]["id"] == rid for rid in rules)
