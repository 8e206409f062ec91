"""Interprocedural analysis under the rule engine (`repro.check.flow`).

A rule's file clause (``Rule.check``) sees one module at a time; its
program clause (``Rule.check_program``) sees the whole checked tree at
once, through this subpackage:

* :mod:`~repro.check.flow.graph` builds a program-wide **call graph**
  with import-alias resolution (absolute *and* relative imports) and
  method attribution (``self.method()``, attribute types inferred from
  ``__init__`` assignments and annotations, bound-method calls);
* :mod:`~repro.check.flow.context` exposes it through
  :class:`ProgramContext` — the whole-program twin of
  :class:`repro.check.rules.FileContext` (``program.report(rel, node,
  message)`` reports under the running rule's id);
* :mod:`~repro.check.flow.taint` runs a forward **taint analysis** over
  the graph (function summaries to fixpoint) with three built-in kinds:
  host-clock values, nondeterministic RNG draws, and unordered-iteration
  values — the program clauses of RPR001 and RPR002 report its sink hits;
* :mod:`~repro.check.flow.rules_async` (RPR010/RPR011) and
  :mod:`~repro.check.flow.rules_procs` (RPR012) guard the async and
  cross-process state of the serving layer.

Findings flow through the exact same suppress/baseline/CLI contract as
file-clause findings; see ``docs/static_analysis.md`` ("Interprocedural
analysis") for the taint kinds, the sink catalog, and rule semantics.
"""

from .context import ProgramContext, build_program, run_program_rules
from .graph import CallGraph, CallSite, FunctionInfo, build_graph
from .taint import Taint, TaintAnalysis

__all__ = [
    "CallGraph", "CallSite", "FunctionInfo", "ProgramContext", "Taint",
    "TaintAnalysis", "build_graph", "build_program", "run_program_rules",
]
