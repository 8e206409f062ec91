"""RPR006 — vectorized-executor hygiene.

The whole point of :mod:`repro.ops.vexec` is that, past the key-lowering
boundary, execution is numeric whole-array code: precompiled index
gathers, vectorized comparators, fused ``np.where`` writebacks, charges
paid through the plans' fused vectors.  The failure modes are all quiet
regressions — an object-dtype array or a ``range()`` element loop slipped
into an executor re-creates exactly the per-pair python path the module
replaces (the wall-clock rots, every value test stays green), and a
per-round charge call de-fuses the charge vector (simulated time drifts
from the reference executor).

The rule therefore flags, inside the vexec module only
(:attr:`repro.check.policy.CheckPolicy.vexec_modules`):

* **object-dtype construction** — ``dtype=object`` keywords,
  ``astype(object)``, and ``np.frompyfunc``/``np.vectorize`` lifts;
* **python element loops** — ``for ... in range(...)`` statements, the
  per-slot idiom (whole-array iteration over round schedules or column
  lists is the vectorized idiom and stays legal);
* **per-round charge calls** — any charge API outside the fused set
  (:attr:`~repro.check.policy.CheckPolicy.vexec_fused_charges`).

Functions named ``_lower*`` / ``_rebox*`` are the declared
python-object boundary (they may walk elements once per operation and
build object arrays) and are exempt from the first two checks.
"""

from __future__ import annotations

import ast

from .rules import FileContext, Rule, register

#: The declared object/python boundary of the vexec module.
_BOUNDARY_PREFIXES = ("_lower", "_rebox")

#: Object-lifting factories that reintroduce per-element python calls.
_LIFT_CALLS = {"numpy.frompyfunc", "numpy.vectorize"}


@register
class VexecHygiene(Rule):
    id = "RPR006"
    name = "vexec-hygiene"
    summary = ("object-dtype arrays, python element loops, or unfused "
               "charge calls inside the vectorized executor")
    rationale = ("the vectorized executor exists to replace per-pair "
                 "python loops; an object array or range() loop past the "
                 "lowering boundary silently restores them, and a "
                 "per-round charge call de-fuses the plan charge vectors "
                 "the two-executor contract relies on "
                 "(docs/cost_model.md)")

    def check(self, ctx: FileContext) -> None:
        if not ctx.policy.is_vexec_module(ctx.rel):
            return
        fused = set(ctx.policy.vexec_fused_charges)
        for node, name in ctx.calls():
            leaf = name.rsplit(".", 1)[-1]
            if name in _LIFT_CALLS and not _in_boundary(ctx, node):
                ctx.report(node, f"{name}() lifts a python callable over "
                                 f"arrays — per-element execution in the "
                                 f"vectorized executor")
            elif leaf == "astype" and _mentions_object(node.args):
                if not _in_boundary(ctx, node):
                    ctx.report(node, "astype(object) in the vectorized "
                                     "executor (lowering/rebox helpers "
                                     "are the only legal boundary)")
            elif leaf in ctx.policy.charge_calls and leaf not in fused:
                ctx.report(node, f"per-round charge call {leaf}(); vexec "
                                 f"must charge through the fused plan "
                                 f"vectors ({', '.join(sorted(fused))})")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.keyword) and node.arg == "dtype" \
                    and _is_object_expr(node.value) \
                    and not _in_boundary(ctx, node.value):
                ctx.report(node.value, "dtype=object array in the "
                                       "vectorized executor (only "
                                       "_lower*/_rebox* may box objects)")
            elif isinstance(node, ast.For) and _is_range_call(node.iter) \
                    and not _in_boundary(ctx, node):
                ctx.report(node, "for-over-range() element loop in the "
                                 "vectorized executor; use whole-array "
                                 "gathers over the plan's index arrays")


def _in_boundary(ctx: FileContext, node: ast.AST) -> bool:
    fn = ctx.enclosing_function(node)
    while fn is not None:
        name = getattr(fn, "name", "")
        if name.startswith(_BOUNDARY_PREFIXES):
            return True
        fn = ctx.enclosing_function(fn)
    return False


def _is_object_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "object"
    if isinstance(node, ast.Attribute):
        return node.attr in ("object_", "object")
    return False


def _mentions_object(args: list) -> bool:
    return any(_is_object_expr(a) for a in args)


def _is_range_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "range")
