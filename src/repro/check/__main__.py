"""``python -m repro.check`` — run the static invariant checker.

Exit-code contract (shared with ``python -m repro.verify`` and consumed
by the tier-1 gate and CI):

* ``0`` — clean: no active finding (suppressed/baselined ones may exist),
* ``1`` — findings: at least one active violation (or a stale baseline
  entry under ``--strict-baseline``),
* ``2`` — usage or input error (bad path, malformed baseline, bad flag,
  a ``--changed`` ref git cannot resolve).

Examples::

    python -m repro.check                      # check src/repro (text)
    python -m repro.check --json               # machine-readable report
    python -m repro.check --format sarif       # SARIF 2.1.0 for CI
    python -m repro.check --changed            # findings vs HEAD only
    python -m repro.check --changed origin/main
    python -m repro.check --baseline tests/check/baseline.json
    python -m repro.check --select RPR001,RPR004 src/repro/ops
    python -m repro.check --write-baseline new-baseline.json

``--changed`` still builds the call graph and runs the interprocedural
rules over the *whole* program — a changed caller can introduce a taint
flow whose sink is elsewhere — but only findings located in files
changed versus the ref (default ``HEAD``) are reported.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from .baseline import BaselineError, load_baseline, write_baseline
from .engine import package_base, run_check
from .rules import RULES
from .sarif import to_sarif

#: Default tree to check: the installed package source.
DEFAULT_ROOT = Path(__file__).resolve().parent.parent

#: Default committed baseline, used when it exists and no flag overrides.
DEFAULT_BASELINE = Path(__file__).resolve().parents[3] / "tests" / "check" \
    / "baseline.json"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="AST-based invariant linter: two-clock purity, "
                    "determinism, charge accounting, bounded caches, "
                    "fork-safety, async-race and cross-process hygiene, "
                    "interprocedural clock/RNG taint.",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help=f"files or trees to check (default: {DEFAULT_ROOT})")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the full report as JSON on stdout "
                        "(same as --format json)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default=None, dest="fmt",
                   help="output format (default: text)")
    p.add_argument("--changed", nargs="?", const="HEAD", default=None,
                   metavar="REF",
                   help="report only findings in files changed vs the "
                        "git ref (default ref: HEAD); the program-wide "
                        "analysis still covers the whole tree")
    p.add_argument("--baseline", metavar="FILE", default=None,
                   help="baseline of grandfathered findings (default: "
                        "tests/check/baseline.json when present)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore the default baseline file")
    p.add_argument("--write-baseline", metavar="FILE", default=None,
                   help="write the active findings as a new baseline and "
                        "exit 0")
    p.add_argument("--select", metavar="RPRxxx[,RPRyyy...]", default=None,
                   help="run only these (comma-separated) rules")
    p.add_argument("--show-suppressed", action="store_true",
                   help="also list suppressed/baselined findings")
    p.add_argument("--strict-baseline", action="store_true",
                   help="fail (exit 1) on stale baseline entries")
    p.add_argument("--list-rules", action="store_true",
                   help="describe the registered rules and exit")
    return p


def _resolve_baseline(args) -> dict[str, str] | None:
    if args.no_baseline:
        return None
    if args.baseline:
        return load_baseline(args.baseline)
    if DEFAULT_BASELINE.is_file():
        return load_baseline(DEFAULT_BASELINE)
    return None


def _changed_paths(ref: str) -> set[Path] | None:
    """Absolute paths changed vs ``ref`` (tracked diff + untracked)."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
        diff = subprocess.run(
            ["git", "diff", "--name-only", ref, "--"],
            capture_output=True, text=True, check=True).stdout
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", "") or str(exc)
        print(f"error: --changed {ref}: {detail.strip()}", file=sys.stderr)
        return None
    root = Path(top)
    return {(root / line).resolve()
            for line in (diff + untracked).splitlines() if line.strip()}


def _filter_changed(report, root: Path, changed: set[Path]) -> None:
    base = package_base(root)
    report.findings = [
        f for f in report.findings if (base / f.path).resolve() in changed]


def _dedupe(reports) -> None:
    """Drop findings already reported by an earlier (overlapping) root.

    Identity is (path, line, col, rule, message): the paths are relative
    to the shared package base, so the same file reached through two CLI
    roots or two overlapping policy scopes collapses to one finding.
    """
    seen: set = set()
    for report in reports:
        kept = []
        for f in report.findings:
            key = (f.path, f.line, f.col, f.rule, f.message)
            if key in seen:
                continue
            seen.add(key)
            kept.append(f)
        report.findings = kept


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.list_rules:
        for rid, rule in sorted(RULES.items()):
            print(f"{rid} {rule.name}: {rule.summary}")
        return 0
    fmt = args.fmt or ("json" if args.as_json else "text")
    try:
        baseline = _resolve_baseline(args)
    except (BaselineError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    roots = [Path(p) for p in args.paths] or [DEFAULT_ROOT]
    missing = [str(r) for r in roots if not r.exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    select = args.select.split(",") if args.select else None
    unknown = sorted(set(select or ()) - set(RULES))
    if unknown:
        print(f"error: unknown rule(s): {', '.join(unknown)} "
              f"(see --list-rules)", file=sys.stderr)
        return 2
    changed: set[Path] | None = None
    if args.changed is not None:
        changed = _changed_paths(args.changed)
        if changed is None:
            return 2

    reports = []
    for root in roots:
        rep = run_check(root, baseline=baseline, select=select)
        if changed is not None:
            _filter_changed(rep, root, changed)
        reports.append(rep)
    _dedupe(reports)
    findings = [f for rep in reports for f in rep.active]

    if args.write_baseline:
        n = write_baseline(args.write_baseline, findings)
        print(f"baseline written: {args.write_baseline} ({n} entries)")
        return 0

    stale = [fp for rep in reports for fp in rep.stale_baseline]
    if fmt == "json":
        if len(reports) == 1:
            doc = reports[0].to_dict()
        else:
            doc = {"version": 1, "ok": all(r.ok for r in reports),
                   "reports": [r.to_dict() for r in reports]}
        print(json.dumps(doc, indent=2))
    elif fmt == "sarif":
        print(json.dumps(to_sarif(reports), indent=2))
    else:
        for rep in reports:
            print(rep.render(show_suppressed=args.show_suppressed))
    if any(not rep.ok for rep in reports):
        return 1
    if stale and args.strict_baseline:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
