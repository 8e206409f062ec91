"""The whole-program context that ``Rule.check_program`` clauses read.

A :class:`ProgramContext` carries every parsed file at once, the
resolved call graph, and (lazily) the taint analysis.  A rule reports
through ``program.report(rel, node, message)``; the finding lands in the
owning file's :class:`FileContext` under the rule's own id, so it goes
through the *same* downstream contract as a file-clause finding — inline
``# repro: noqa`` comments, the baseline file, fingerprints, the CLI
exit code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..policy import DEFAULT_POLICY, CheckPolicy
from ..rules import FileContext, Rule, selected
from .graph import CallGraph, build_graph
from .taint import TaintAnalysis


@dataclass
class ProgramContext:
    """Everything a program clause needs: all files, the graph, the taint."""

    policy: CheckPolicy
    contexts: dict[str, FileContext] = field(default_factory=dict)
    graph: CallGraph = field(default_factory=CallGraph)
    _taint: TaintAnalysis | None = None
    _rule: Rule | None = None

    @property
    def taint(self) -> TaintAnalysis:
        """The (lazily computed, cached) whole-program taint analysis."""
        if self._taint is None:
            self._taint = TaintAnalysis(self.graph, self.policy)
            self._taint.run()
        return self._taint

    def report(self, rel: str, node: ast.AST, message: str) -> None:
        """Record a finding against ``rel`` (must be a checked file)."""
        ctx = self.contexts[rel]
        ctx._rule = self._rule
        ctx.report(node, message)
        ctx._rule = None


def build_program(contexts, policy: CheckPolicy | None = None,
                  ) -> ProgramContext:
    """Assemble a :class:`ProgramContext` from parsed file contexts."""
    ctx_map = {ctx.rel: ctx for ctx in contexts}
    graph = build_graph(sorted(
        ((rel, ctx.tree) for rel, ctx in ctx_map.items())))
    return ProgramContext(policy=policy or DEFAULT_POLICY,
                          contexts=ctx_map, graph=graph)


def run_program_rules(program: ProgramContext, select=None) -> None:
    """Run the selected rules' whole-program clauses."""
    for rule in selected(select):
        program._rule = rule
        rule.check_program(program)
    program._rule = None
