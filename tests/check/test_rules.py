"""Per-rule fixture tests: exact rule ids, lines, and suppressions.

Each RPR rule has a known-bad fixture (every expected finding asserted by
rule id and line number) and a known-good fixture (zero findings), under
``tests/check/fixtures/<rule>/``.  The fixture trees mimic the package
layout (``ops/``, ``machines/``, ...) because the rules scope themselves
by path through :class:`repro.check.policy.CheckPolicy`.
"""

from pathlib import Path

import pytest

from repro.check import RULES, Rule, register, run_check
from repro.check.rules import FileContext

pytestmark = pytest.mark.check

FIXTURES = Path(__file__).parent / "fixtures"


def findings_of(subdir):
    report = run_check(FIXTURES / subdir)
    assert not report.parse_errors
    return report


def triples(report):
    """Sorted (filename, line, rule) for every *active* finding."""
    return sorted((f.path.rsplit("/", 1)[-1], f.line, f.rule)
                  for f in report.active)


# ----------------------------------------------------------------------
# RPR001 two-clock purity
# ----------------------------------------------------------------------
def test_rpr001_bad_fixture_exact_findings():
    report = findings_of("rpr001")
    assert triples(report) == [
        ("bad_clock.py", 4, "RPR001"),   # from time import perf_counter
        ("bad_clock.py", 5, "RPR001"),   # from datetime import datetime
        ("bad_clock.py", 9, "RPR001"),   # time.time() call
    ]


def test_rpr001_from_import_finding_covers_its_calls():
    # perf_counter() and datetime.now() calls produce no findings of
    # their own: the import line carries (and can suppress) them.
    report = findings_of("rpr001")
    assert all(f.line in (4, 5, 9) for f in report.active)


def test_rpr001_good_fixture_clean():
    report = run_check(FIXTURES / "rpr001" / "core" / "good_clock.py")
    assert report.ok and not report.findings


# ----------------------------------------------------------------------
# RPR002 determinism
# ----------------------------------------------------------------------
def test_rpr002_bad_fixture_exact_findings():
    report = findings_of("rpr002")
    assert triples(report) == [
        ("bad_rng.py", 10, "RPR002"),    # random.seed
        ("bad_rng.py", 11, "RPR002"),    # random.random
        ("bad_rng.py", 15, "RPR002"),    # legacy numpy global draw
        ("bad_rng.py", 19, "RPR002"),    # os.environ[...] in library code
        ("bad_rng.py", 24, "RPR002"),    # for c in set(...) feeding +=
        ("bad_rng.py", 30, "RPR002"),    # sum(... for ... in set(...))
    ]


def test_rpr002_entrypoint_may_read_environ():
    report = run_check(FIXTURES / "rpr002" / "ops" / "__main__.py")
    assert report.ok and not report.findings


def test_rpr002_good_fixture_clean():
    report = run_check(FIXTURES / "rpr002" / "ops" / "good_rng.py")
    assert report.ok and not report.findings


# ----------------------------------------------------------------------
# RPR003 charge accounting
# ----------------------------------------------------------------------
def test_rpr003_bad_fixture_exact_findings():
    report = findings_of("rpr003")
    assert triples(report) == [
        ("bad_movement.py", 8, "RPR003"),   # out[1:] = values[:-1]
        ("bad_movement.py", 14, "RPR003"),  # arr[src] = arr[dst]
    ]


def test_rpr003_charged_function_clean():
    report = run_check(FIXTURES / "rpr003" / "ops" / "good_movement.py")
    assert report.ok and not report.findings


def test_rpr003_only_binds_in_charge_scope(tmp_path):
    # The same movement writes outside ops//machines are not PE data.
    source = (FIXTURES / "rpr003" / "ops" / "bad_movement.py").read_text()
    elsewhere = tmp_path / "geometry"
    elsewhere.mkdir()
    (elsewhere / "movement.py").write_text(source)
    report = run_check(elsewhere)
    assert report.ok and not report.findings


# ----------------------------------------------------------------------
# RPR004 bounded caches
# ----------------------------------------------------------------------
def test_rpr004_bad_fixture_exact_findings():
    report = findings_of("rpr004")
    assert triples(report) == [
        ("bad_cache.py", 5, "RPR004"),    # unbounded, unclearable _MEMO
        ("bad_cache.py", 14, "RPR004"),   # lru_cache(maxsize=None)
    ]


def test_rpr004_message_names_both_obligations():
    report = findings_of("rpr004")
    memo = [f for f in report.active if f.line == 5][0]
    assert "cap" in memo.message and "clear" in memo.message


def test_rpr004_good_fixture_clean():
    report = run_check(FIXTURES / "rpr004" / "machines" / "good_cache.py")
    assert report.ok and not report.findings


# ----------------------------------------------------------------------
# RPR005 fork-safety
# ----------------------------------------------------------------------
def test_rpr005_bad_fixture_exact_findings():
    report = findings_of("rpr005")
    assert triples(report) == [
        ("bad_workers.py", 15, "RPR005"),  # lambda worker
        ("bad_workers.py", 22, "RPR005"),  # nested-def worker
        ("bad_workers.py", 26, "RPR005"),  # global-mutating worker
    ]


def test_rpr005_good_fixture_clean():
    report = run_check(FIXTURES / "rpr005" / "verify" / "good_workers.py")
    assert report.ok and not report.findings


# ----------------------------------------------------------------------
# RPR006 vectorized-executor hygiene
# ----------------------------------------------------------------------
def test_rpr006_bad_fixture_exact_findings():
    report = findings_of("rpr006")
    assert triples(report) == [
        ("vexec.py", 8, "RPR006"),    # dtype=object outside _lower*/_rebox*
        ("vexec.py", 9, "RPR006"),    # for-over-range element loop
        ("vexec.py", 15, "RPR006"),   # per-round machine.exchange charge
        ("vexec.py", 20, "RPR006"),   # np.frompyfunc python lift
        ("vexec.py", 21, "RPR006"),   # astype(object)
    ]


def test_rpr006_good_fixture_boundary_functions_exempt():
    # The good tree boxes objects and walks elements *inside* the
    # _lower*/_rebox* boundary, charges only fused sweeps — zero findings.
    report = run_check(FIXTURES / "rpr006" / "good_tree")
    assert report.ok and not report.findings


def test_rpr006_only_binds_to_the_vexec_module(tmp_path):
    # The same code under any other module name is out of scope: RPR006
    # is a contract of repro.ops.vexec specifically.
    source = (FIXTURES / "rpr006" / "bad_tree" / "ops" /
              "vexec.py").read_text()
    ops = tmp_path / "ops"
    ops.mkdir()
    (ops / "helpers.py").write_text(source)
    report = run_check(tmp_path, select=["RPR006"])
    assert report.ok and not report.findings


# ----------------------------------------------------------------------
# RPR007 service loop purity
# ----------------------------------------------------------------------
def test_rpr007_bad_fixture_exact_findings():
    report = findings_of("rpr007")
    assert triples(report) == [
        ("bad_server.py", 10, "RPR007"),  # envelope() in async handler
        ("bad_server.py", 11, "RPR007"),  # time.sleep() in async handler
        ("bad_server.py", 17, "RPR007"),  # driver via sync def nested in async
    ]


def test_rpr007_submit_pattern_and_sync_workers_clean():
    # pool.submit(execute_batch, ...) passes the callable uncalled, and a
    # plain sync function may run the driver — both are the point.
    report = run_check(FIXTURES / "rpr007" / "service" / "good_server.py")
    assert report.ok and not report.findings


def test_rpr007_only_binds_to_service_modules(tmp_path):
    # The same async driver calls outside service/ are out of scope:
    # RPR007 is a contract of the serving loop specifically.
    source = (FIXTURES / "rpr007" / "service" / "bad_server.py").read_text()
    verify = tmp_path / "verify"
    verify.mkdir()
    (verify / "bad_server.py").write_text(source)
    report = run_check(tmp_path, select=["RPR007"])
    assert report.ok and not report.findings


def test_rpr007_shipped_service_package_is_clean():
    # The real asyncio server honours its own rule with zero suppressions.
    # Checked from the package root so service/ modules resolve in scope.
    import repro
    root = Path(repro.__file__).parent
    assert (root / "service" / "server.py").exists()
    report = run_check(root, select=["RPR007"])
    assert report.ok and not report.findings


# ----------------------------------------------------------------------
# RPR008 incremental event-queue determinism
# ----------------------------------------------------------------------
def test_rpr008_bad_fixture_exact_findings():
    report = findings_of("rpr008")
    assert triples(report) == [
        ("bad_queue.py", 8, "RPR008"),   # bare heappush (insertion order)
        ("bad_queue.py", 12, "RPR008"),  # id() in a sort key
        ("bad_queue.py", 16, "RPR008"),  # hash() in a sort key
    ]


def test_rpr008_canonical_tuple_push_clean():
    # Pushing explicit (failure_time, key, payload) tuples and sorting
    # by geometric keys is exactly the sanctioned pattern.
    report = run_check(FIXTURES / "rpr008" / "incremental" / "good_queue.py")
    assert report.ok and not report.findings


def test_rpr008_only_binds_to_incremental_modules(tmp_path):
    # The same code outside incremental/ is out of scope: RPR008 is a
    # contract of the certificate event queue specifically.
    source = (FIXTURES / "rpr008" / "incremental" / "bad_queue.py").read_text()
    analysis = tmp_path / "analysis"
    analysis.mkdir()
    (analysis / "bad_queue.py").write_text(source)
    report = run_check(tmp_path, select=["RPR008"])
    assert report.ok and not report.findings


def test_rpr008_shipped_incremental_package_is_clean():
    # The real engine honours its own rule with zero suppressions.
    import repro
    root = Path(repro.__file__).parent
    assert (root / "incremental" / "events.py").exists()
    report = run_check(root, select=["RPR008"])
    assert report.ok and not report.findings


# ----------------------------------------------------------------------
# RPR009 telemetry hygiene
# ----------------------------------------------------------------------
def test_rpr009_bad_fixture_exact_findings():
    report = findings_of("rpr009")
    assert triples(report) == [
        ("bad_obs.py", 10, "RPR001"),  # time.time() in obs code
        ("bad_obs.py", 11, "RPR009"),  # unguarded self.records.append
        ("bad_obs.py", 16, "RPR009"),  # f-string payload to emit()
    ]


def test_rpr001_obs_may_read_only_interval_clocks(tmp_path):
    # obs/ is not a wall-clock module: RPR001 binds there, less the
    # obs_clock_allow pair (perf_counter), in both the call and the
    # from-import form.  The same file elsewhere reports every clock.
    source = "\n".join([
        "import time",                          # 1
        "from time import perf_counter",        # 2
        "from datetime import datetime",        # 3
        "",                                     # 4
        "def sample():",                        # 5
        "    a = time.perf_counter()",          # 6
        "    b = perf_counter()",               # 7
        "    c = time.monotonic()",             # 8
        "    return a, b, c, datetime.now()",   # 9
    ]) + "\n"
    for pkg in ("obs", "analysis"):
        (tmp_path / pkg).mkdir()
        (tmp_path / pkg / "clocks.py").write_text(source)
    report = run_check(tmp_path, select=["RPR001"])
    by_pkg = {}
    for f in report.active:
        assert f.rule == "RPR001"
        by_pkg.setdefault(f.path.split("/")[-2], []).append(f.line)
    assert sorted(by_pkg["obs"]) == [3, 8]
    assert sorted(by_pkg["analysis"]) == [2, 3, 6, 8]


def test_rpr009_bounded_ring_and_structured_payloads_clean():
    # The cap-guarded ring idiom, perf_counter intervals, structured
    # fields, and local-list appends are all exactly the point.
    report = run_check(FIXTURES / "rpr009" / "obs" / "good_obs.py")
    assert report.ok and not report.findings


def test_rpr009_only_binds_to_obs_modules(tmp_path):
    # The same code outside obs/ (and service/, for emission sites) is
    # out of scope: RPR009 is a contract of the telemetry layer.
    source = (FIXTURES / "rpr009" / "obs" / "bad_obs.py").read_text()
    elsewhere = tmp_path / "analysis"
    elsewhere.mkdir()
    (elsewhere / "bad_obs.py").write_text(source)
    report = run_check(tmp_path, select=["RPR009"])
    assert report.ok and not report.findings


def test_rpr009_shipped_obs_package_is_clean():
    # The real telemetry package (and the service emission sites) honour
    # their own rule with zero suppressions.
    import repro
    root = Path(repro.__file__).parent
    assert (root / "obs" / "events.py").exists()
    report = run_check(root, select=["RPR009"])
    assert report.ok and not report.findings


# ----------------------------------------------------------------------
# Suppression behaviour (shared by all rules)
# ----------------------------------------------------------------------
def test_reasoned_noqa_suppresses_and_keeps_reason():
    report = findings_of("suppression")
    sup = [f for f in report.findings if f.line == 7]
    assert len(sup) == 1 and not sup[0].active
    assert sup[0].suppressed_by == "noqa"
    assert "reasoned suppression" in sup[0].suppress_reason


def test_reasonless_noqa_is_rpr000_and_does_not_suppress():
    report = findings_of("suppression")
    at_11 = sorted(f.rule for f in report.active if f.line == 11)
    assert at_11 == ["RPR000", "RPR002"]


def test_noqa_for_other_rule_does_not_cover():
    report = findings_of("suppression")
    at_15 = [f for f in report.active if f.line == 15]
    assert [f.rule for f in at_15] == ["RPR002"]


# ----------------------------------------------------------------------
# Rule-author API
# ----------------------------------------------------------------------
def test_custom_rule_registers_and_runs(tmp_path):
    @register
    class NoPrint(Rule):
        id = "RPR999"
        name = "no-print"
        summary = "print() calls in library code"

        def check(self, ctx: FileContext) -> None:
            for node, name in ctx.calls():
                if name == "print":
                    ctx.report(node, "print() in library code")

    try:
        target = tmp_path / "mod.py"
        target.write_text('def f():\n    print("hi")\n')
        report = run_check(target, select=["RPR999"])
        assert [(f.line, f.rule) for f in report.active] == [(2, "RPR999")]
    finally:
        RULES.pop("RPR999")


def test_builtin_rules_registered_with_docs():
    assert {"RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
            "RPR006", "RPR007", "RPR008", "RPR009"} <= set(RULES)
    for rule in RULES.values():
        assert rule.name and rule.summary and rule.rationale
