"""RPR001 — two-clock purity.

Simulated parallel time is a pure function of the operation sequence; the
host wall clock may only be read by the modules whose *job* is wall-clock
(``machines/metrics.py`` wall accounting, ``trace/tracer.py`` spans,
``trace/provenance.py`` manifests, ``parallel.py``, ``service/``,
``benchmarks/``).  A stray ``perf_counter()`` anywhere else is how wall
time leaks into simulated accounting and silently corrupts the
Theta-conformance goldens.  Telemetry (``obs/``) measures intervals, so
it may read the ``obs_clock_allow`` clocks (the ``perf_counter`` pair)
and nothing else: its event order is the sequence number, and calendar
timestamps belong to provenance manifests.

The file clause flags calls resolving to a banned clock name, and
``from``-imports of banned names (the contraband entering the module).
Suppressing the import line with a reasoned ``# repro: noqa RPR001``
also covers calls of that imported name.

The program clause catches the *flow* the file clause cannot see: a
host-clock value that crosses function boundaries and lands in
simulated-charge accounting or response bytes (the read may be legal
where it happens — the service may measure latency, just not serialize
it).  Both clauses report under RPR001, so one ``noqa`` channel covers
the invariant.
"""

from __future__ import annotations

import ast

from .flow.context import ProgramContext
from .flow.taint import BANNED_CLOCKS, CLOCK
from .rules import FileContext, Rule, register

_BANNED_TYPES = {"datetime", "date"}  # the types carry .now()/.today()


@register
class TwoClockPurity(Rule):
    id = "RPR001"
    name = "two-clock-purity"
    summary = ("wall-clock reads (time.*, datetime.now, perf_counter) "
               "outside the allowlisted wall-clock modules, or host-clock "
               "values flowing into charge accounting or payload bytes")
    rationale = ("simulated time must be a pure function of the operation "
                 "sequence; wall-clock belongs only to the metrics/trace/"
                 "parallel layers (docs/cost_model.md, two-clock contract)")

    def check(self, ctx: FileContext) -> None:
        policy = ctx.policy
        if policy.is_wallclock_module(ctx.rel):
            return
        banned = BANNED_CLOCKS
        if policy.is_obs_module(ctx.rel):
            banned -= set(policy.obs_clock_allow)
        imported_clocks = self._flag_imports(ctx, banned)
        for node, name in ctx.calls():
            if name in banned:
                # Calls through a from-imported name are covered by the
                # finding (and any suppression) on the import line itself.
                if _root_name(node.func) in imported_clocks:
                    continue
                ctx.report(node, f"wall-clock read {name}() outside the "
                                 f"wall-clock allowlist")

    def _flag_imports(self, ctx: FileContext, banned) -> set[str]:
        """Flag banned from-imports; return the local names they bind."""
        bound: set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            for alias in node.names:
                banned_type = (node.module == "datetime"
                               and alias.name in _BANNED_TYPES)
                if f"{node.module}.{alias.name}" in banned or banned_type:
                    bound.add(alias.asname or alias.name)
                    ctx.report(node, f"import of wall-clock name "
                                     f"{node.module}.{alias.name} outside "
                                     f"the wall-clock allowlist")
        return bound

    def check_program(self, program: ProgramContext) -> None:
        for hit in program.taint.hits_of(CLOCK):
            program.report(
                hit.rel, hit.node,
                f"wall-clock value from {hit.describe()}; simulated "
                f"charges and payload bytes must not depend on the host "
                f"clock")


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None
