"""RPR009 — hygiene of the operational-telemetry layer.

The observability package (:mod:`repro.obs`) runs always-on inside the
serving loop, so its failure modes are quiet and cumulative: a telemetry
buffer that grows without bound is a slow memory leak on the hot path,
and an f-string handed to an emission site turns a structured record
into a pre-formatted message no consumer can filter on.  Both look
perfectly healthy in tests.  (Which clocks obs code may read is RPR001's
business: interval clocks only, per ``obs_clock_allow``.)

The rule flags, inside obs modules
(:attr:`~repro.check.policy.CheckPolicy.obs_modules`):

* **unguarded buffer appends** — ``X.append(...)`` on an *attribute*
  target (instance state, the persistent buffers) whose enclosing
  function shows no ``len(X)`` cap comparison.  The sanctioned ring idiom
  keeps the guard next to the append::

      if len(self.records) >= self.capacity:
          del self.records[0]
      self.records.append(rec)

  Local-variable appends are scope-bounded and out of scope;

and, at the emission sites (obs modules *plus* the service modules that
call them):

* **f-string payloads** — an ``ast.JoinedStr`` argument to any call
  whose leaf name is in
  :attr:`~repro.check.policy.CheckPolicy.obs_emit_calls`; pass
  structured fields (``code="bad_request"``) instead.
"""

from __future__ import annotations

import ast

from .rules import FileContext, Rule, register


@register
class ObsHygiene(Rule):
    id = "RPR009"
    name = "obs-hygiene"
    summary = ("telemetry buffer appended without a visible len() cap "
               "guard, or f-string payload at a structured emission site")
    rationale = ("always-on telemetry must stay bounded (RPR004 applied "
                 "to the hot path) and structured (filterable fields, "
                 "never pre-formatted messages) — docs/operations.md")

    def check(self, ctx: FileContext) -> None:
        in_obs = ctx.policy.is_obs_module(ctx.rel)
        if in_obs:
            self._check_appends(ctx)
        if in_obs or ctx.policy.is_service_module(ctx.rel):
            self._check_payloads(ctx)

    # -- bounded buffers ------------------------------------------------
    def _check_appends(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and isinstance(node.func.value, ast.Attribute)):
                continue
            target = ctx.dotted(node.func.value)
            if target is None or _guarded(ctx, node, target):
                continue
            ctx.report(node, f"append to telemetry buffer {target} with "
                             f"no len({target}) cap guard in the "
                             f"enclosing function; bound the ring "
                             f"(drop-oldest) or it grows forever on "
                             f"the hot path")

    # -- structured payloads --------------------------------------------
    def _check_payloads(self, ctx: FileContext) -> None:
        emit_names = set(ctx.policy.obs_emit_calls)
        for node, name in ctx.calls():
            if name.rsplit(".", 1)[-1] not in emit_names:
                continue
            args = [*node.args, *(kw.value for kw in node.keywords)]
            if any(isinstance(a, ast.JoinedStr) for a in args):
                ctx.report(node, "f-string payload at a structured "
                                 "emission site; pass fields "
                                 "(code=..., name=...) so consumers "
                                 "can filter on them")


def _guarded(ctx: FileContext, node: ast.AST, target: str) -> bool:
    """A ``len(<target>)`` comparison in the append's enclosing scope."""
    fn = ctx.enclosing_function(node)
    scope = fn if fn is not None else ctx.tree
    for sub in ast.walk(scope):
        if not isinstance(sub, ast.Compare):
            continue
        for expr in [sub.left, *sub.comparators]:
            if isinstance(expr, ast.Call) \
                    and isinstance(expr.func, ast.Name) \
                    and expr.func.id == "len" and expr.args \
                    and ctx.dotted(expr.args[0]) == target:
                return True
    return False
