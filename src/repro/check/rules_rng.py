"""RPR002 — determinism.

Three leak paths into nondeterminism, all statically visible:

* **module-global RNG state** — calls into ``random.*`` or legacy
  ``numpy.random.*`` draw from process-wide state seeded who-knows-where.
  Every draw must come from an explicitly seeded generator
  (``np.random.default_rng(seed)`` / ``random.Random(seed)``).
* **environment reads** — ``os.environ`` / ``os.getenv`` outside CLI
  entry points make library behaviour depend on ambient configuration;
  configuration enters a run once, at the edge.
* **set-order float accumulation** — iterating a ``set`` feeds hash
  order into an order-sensitive float sum; in the accounting subtrees
  that changes simulated charges between hash seeds.

The program clause follows the same values across function boundaries:
an unseeded draw or a set-order value that reaches payload bytes or an
accounting accumulation through calls is reported at the sink, under
the same id.
"""

from __future__ import annotations

import ast

from .flow.context import ProgramContext
from .flow.taint import NP_RANDOM_OK, RNG, UNORDERED
from .rules import FileContext, Rule, register

#: random-module names that construct an instance instead of touching the
#: module-global Mersenne Twister.  (``SystemRandom`` stays banned: it is
#: nondeterministic by construction.)
RANDOM_OK = frozenset({"Random"})

ENV_READS = frozenset({"os.getenv", "os.environ.get", "os.environ.items",
                       "os.environ.keys", "os.environ.values"})


@register
class Determinism(Rule):
    id = "RPR002"
    name = "determinism"
    summary = ("module-global RNG state, os.environ reads outside entry "
               "points, or set-order-fed float accumulation, also when "
               "such values reach payload bytes or accounting through "
               "calls")
    rationale = ("every run must be a pure function of its seeds and "
                 "arguments — identical for every --jobs value and hash "
                 "seed (docs/verification.md determinism contract)")

    def check(self, ctx: FileContext) -> None:
        for node, name in ctx.calls():
            self._check_call(ctx, node, name)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Subscript):
                base = ctx.dotted(node.value)
                if base == "os.environ" and not ctx.policy.is_entrypoint(ctx.rel):
                    ctx.report(node, "os.environ read outside a CLI entry "
                                     "point")
        if ctx.policy.in_accounting_path(ctx.rel):
            self._check_set_accumulation(ctx)

    def _check_call(self, ctx: FileContext, node: ast.Call, name: str) -> None:
        parts = name.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] not in RANDOM_OK:
                ctx.report(node, f"call to module-global RNG {name}(); use "
                                 f"a seeded random.Random instance")
        elif parts[:2] == ["numpy", "random"] and len(parts) == 3:
            if parts[2] not in NP_RANDOM_OK:
                ctx.report(node, f"legacy global-state call {name}(); use "
                                 f"np.random.default_rng(seed)")
        elif name in ENV_READS and not ctx.policy.is_entrypoint(ctx.rel):
            ctx.report(node, f"environment read {name}() outside a CLI "
                             f"entry point")

    # -- set iteration feeding float accumulation -----------------------
    def _check_set_accumulation(self, ctx: FileContext) -> None:
        msg = ("iteration over a set feeding accumulation: set order is "
               "hash-seed dependent; sort or use a list/dict")
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.For) and _is_set_expr(ctx, node.iter)
                    and _accumulates(node)):
                ctx.report(node, msg)
            elif isinstance(node, ast.Call):
                # sum(f(x) for x in some_set) — order-sensitive reduction.
                name = ctx.dotted(node.func)
                if name not in ("sum", "math.fsum"):
                    continue
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)) \
                            and any(_is_set_expr(ctx, g.iter)
                                    for g in arg.generators):
                        ctx.report(node, msg)

    def check_program(self, program: ProgramContext) -> None:
        for hit in program.taint.hits_of(RNG, UNORDERED):
            if hit.kind == UNORDERED and not hit.taint.via \
                    and hit.taint.origin_rel == hit.rel:
                # A set display feeding a sink inside one function is
                # the file clause's case; re-reporting it here would
                # double every local finding.
                continue
            what = ("nondeterministic value" if hit.kind == RNG
                    else "hash-order-dependent value")
            program.report(
                hit.rel, hit.node,
                f"{what} from {hit.describe()}; every run must be a "
                f"pure function of its seeds and arguments")

    def describe(self) -> dict:
        d = super().describe()
        d["allowed_rng"] = sorted(NP_RANDOM_OK)
        return d


def _is_set_expr(ctx: FileContext, node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = ctx.dotted(node.func)
        return name in ("set", "frozenset")
    return False


def _accumulates(loop: ast.For) -> bool:
    """Whether the loop body contains an augmented accumulation."""
    for node in ast.walk(loop):
        if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult)):
            return True
    return False
