"""Rule base class, registry, and the per-file analysis context.

Authoring a rule is ~30 lines: subclass :class:`Rule`, set ``id`` /
``name`` / ``summary`` / ``rationale``, implement ``check(ctx)`` calling
``ctx.report(node, message)`` for each violation, and decorate with
``@register``.  A rule whose invariant crosses files implements
``check_program(program)`` as well (or instead), calling
``program.report(rel, node, message)`` against the whole-program
:class:`~repro.check.flow.context.ProgramContext`.  The file context
pre-computes the things every rule needs — the parsed tree, an
import-alias map that canonicalises dotted call names (``from time import
perf_counter as pc`` makes ``pc()`` resolve to ``time.perf_counter``),
parent links, and the enclosing-function index — so rules stay
declarative.

See ``docs/static_analysis.md`` for the authoring walkthrough.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .findings import Finding
from .policy import CheckPolicy

if TYPE_CHECKING:
    from .flow.context import ProgramContext

#: The process-wide rule registry, ordered by registration.
RULES: dict[str, "Rule"] = {}  # repro: noqa RPR004 -- import-time rule registry of fixed size, not a runtime cache


def register(cls):
    """Class decorator adding a rule (by instance) to :data:`RULES`."""
    rule = cls()
    if not rule.id or rule.id in RULES:
        raise ValueError(f"rule id {rule.id!r} missing or already taken")
    RULES[rule.id] = rule
    return cls


def selected(select=None) -> list["Rule"]:
    """The registered rules, narrowed to the ids in ``select`` if given."""
    return [rule for rule in RULES.values()
            if not select or rule.id in select]


class Rule:
    """One named, suppressible invariant, checked per file and/or over
    the whole program; both clauses report under :attr:`id`."""

    id: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, ctx: "FileContext") -> None:
        """Per-file clause (default: none)."""

    def check_program(self, program: "ProgramContext") -> None:
        """Whole-program clause, run after every file clause (default:
        none)."""

    def describe(self) -> dict:
        return {"id": self.id, "name": self.name, "summary": self.summary,
                "rationale": self.rationale}


@dataclass
class FileContext:
    """Everything a rule needs to analyse one file."""

    rel: str                      # POSIX path relative to the checked root
    source: str
    tree: ast.Module
    policy: CheckPolicy
    lines: list[str] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    _rule: Rule | None = None
    _aliases: dict[str, str] = field(default_factory=dict)
    _parents: dict[int, ast.AST] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.lines = self.source.splitlines()
        self._aliases = _import_aliases(self.tree)
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    # -- reporting ------------------------------------------------------
    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        src = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        assert self._rule is not None
        self.findings.append(Finding(
            path=self.rel, line=line, col=col,
            rule=self._rule.id, message=message, source=src,
        ))

    # -- name resolution ------------------------------------------------
    def dotted(self, node: ast.AST) -> str | None:
        """Canonical dotted name of a Name/Attribute chain, or ``None``.

        Resolves through the module's import aliases: with ``import numpy
        as np``, the expression ``np.random.rand`` yields
        ``"numpy.random.rand"``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self._aliases.get(node.id, node.id)
        parts.append(head)
        return ".".join(reversed(parts))

    def calls(self):
        """Yield ``(call_node, dotted_name)`` for every resolvable call."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                name = self.dotted(node.func)
                if name is not None:
                    yield node, name

    # -- structure helpers ----------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def enclosing_function(self, node: ast.AST):
        """The nearest enclosing def/lambda, or ``None`` at module scope."""
        cur = self.parent(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                return cur
            cur = self.parent(cur)
        return None

    def functions(self):
        """Every def in the file (module-level, methods, and nested)."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def module_level(self, node: ast.AST) -> bool:
        """True when the statement executes at import time, outside defs."""
        return self.enclosing_function(node) is None


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                if a.name != "*":
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def run_rules(ctx: FileContext, select=None) -> None:
    """Run the selected rules' file clauses over one file."""
    for rule in selected(select):
        ctx._rule = rule
        rule.check(ctx)
    ctx._rule = None
