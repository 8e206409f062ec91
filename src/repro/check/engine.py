"""Walk a tree, run the rules, apply suppressions and baseline.

The engine is deliberately dumb: it parses every ``*.py`` under the root
with :mod:`ast`, runs the registered rules' file clauses over each file
and their whole-program clauses (:mod:`repro.check.flow`) over all files
at once, then filters the raw findings through the two suppression
channels (inline ``noqa`` comments, then the baseline file).  All policy
lives in :mod:`repro.check.policy`; all judgement lives in the rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from . import builtin  # noqa: F401  (registers the RPR rules on import)
from .baseline import apply_baseline
from .findings import Finding
from .flow import build_program, run_program_rules
from .policy import DEFAULT_POLICY, CheckPolicy
from .rules import RULES, FileContext, Rule, run_rules, selected
from .suppress import MALFORMED_RULE, parse_suppressions


@dataclass
class CheckReport:
    """The outcome of one checker run over a tree."""

    root: str
    findings: list[Finding] = field(default_factory=list)
    stale_baseline: list[str] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if not f.active]

    @property
    def ok(self) -> bool:
        return not self.active and not self.parse_errors

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.active:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "root": self.root,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in sorted(self.findings)],
            "stale_baseline": self.stale_baseline,
            "parse_errors": self.parse_errors,
            "rules": {rid: r.describe() for rid, r in sorted(RULES.items())},
        }

    def render(self, *, show_suppressed: bool = False) -> str:
        lines = [f.render() for f in sorted(self.findings)
                 if f.active or show_suppressed]
        lines.extend(f"{self.root}: parse error: {e}"
                     for e in self.parse_errors)
        lines.extend(f"baseline: stale entry {fp}"
                     for fp in self.stale_baseline)
        counts = self.counts()
        total = sum(counts.values())
        if total:
            per_rule = ", ".join(f"{rid} x{n}"
                                 for rid, n in sorted(counts.items()))
            lines.append(f"{total} finding(s): {per_rule}")
        else:
            lines.append(f"clean: {self.files_checked} file(s), "
                         f"{len(self.suppressed)} suppression(s) in effect")
        return "\n".join(lines)


def iter_python_files(root: Path):
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        yield path


def package_base(root: Path) -> Path:
    """The directory finding paths are made relative to.

    Walks up through package directories (those holding ``__init__.py``)
    so ``src/repro/ops/plans.py``, ``src/repro`` and ``benchmarks/`` all
    yield policy-matchable paths like ``repro/ops/plans.py`` — the policy
    compares by suffix/substring, so the leading package name is inert.
    """
    start = root.parent if root.is_file() else root
    cur = start
    while (cur / "__init__.py").is_file() and cur.parent != cur:
        cur = cur.parent
    if cur == start and cur.parent != cur:
        # Not a package (benchmarks/, a fixtures dir): keep the directory
        # name itself in finding paths so policies can scope on it.
        cur = cur.parent
    return cur


def _apply_noqa(ctx: FileContext, raw: list[Finding]) -> list[Finding]:
    suppressions = parse_suppressions(ctx.lines)
    out: list[Finding] = []
    flagged_bad: set[int] = set()
    for f in raw:
        sup = suppressions.get(f.line)
        if sup is not None and sup.covers(f.rule):
            if sup.valid:
                f = Finding(path=f.path, line=f.line, col=f.col, rule=f.rule,
                            message=f.message, source=f.source,
                            suppressed_by="noqa",
                            suppress_reason=sup.reason)
            elif f.line not in flagged_bad:
                flagged_bad.add(f.line)
                out.append(Finding(
                    path=f.path, line=f.line, col=0, rule=MALFORMED_RULE,
                    message="suppression without a reason (use "
                            "'# repro: noqa RPRxxx -- why')",
                    source=f.source))
        out.append(f)
    return out


def run_check(root, *, policy: CheckPolicy | None = None,
              baseline: dict[str, str] | None = None,
              select=None) -> CheckReport:
    """Check every Python file under ``root``; the library entry point.

    ``root`` may be a directory (paths in findings are relative to it) or
    a single file.  ``baseline`` is a pre-loaded ``{fingerprint: reason}``
    map (see :func:`repro.check.baseline.load_baseline`).  Every parsed
    file enters one call graph for the rules' whole-program clauses (built
    only when a selected rule has one), whose findings join the per-file
    ones *before* suppressions apply —
    an inline ``noqa`` covers a dataflow finding exactly like a
    syntactic one.
    """
    root = Path(root)
    policy = policy or DEFAULT_POLICY
    report = CheckReport(root=str(root))
    base = package_base(root)
    contexts: list[FileContext] = []
    for path in iter_python_files(root):
        rel = path.relative_to(base).as_posix()
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
            contexts.append(FileContext(rel=rel, source=source, tree=tree,
                                        policy=policy))
        except SyntaxError as exc:
            report.parse_errors.append(f"{rel}: {exc.msg} (line {exc.lineno})")
        report.files_checked += 1
    for ctx in contexts:
        run_rules(ctx, select=select)
    if contexts and any(type(rule).check_program is not Rule.check_program
                        for rule in selected(select)):
        run_program_rules(build_program(contexts, policy), select=select)
    for ctx in contexts:
        report.findings.extend(_apply_noqa(ctx, ctx.findings))
    if baseline:
        report.findings, report.stale_baseline = apply_baseline(
            report.findings, baseline)
    return report
