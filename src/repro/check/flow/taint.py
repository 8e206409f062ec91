"""Forward taint analysis over the call graph.

Three taint kinds, matching the repo's determinism contract:

* ``clock`` — a value derived from a host-clock read
  (:data:`BANNED_CLOCKS`).  Reaching a charge-accounting call or a
  payload-producing sink means wall time leaks into simulated charges or
  response bytes.
* ``rng`` — a value derived from nondeterministic randomness: the
  module-global ``random``/legacy ``numpy.random`` state, an *unseeded*
  ``random.Random()`` or ``numpy.random.default_rng`` with no seed
  argument, ``os.urandom``,
  ``uuid.uuid4``, ``secrets.*``.  Reaching a payload sink means response
  bytes differ between identical runs.
* ``unordered`` — a value whose iteration order depends on the hash
  seed (``set``/``frozenset`` displays, comprehensions, constructors).
  Reaching float accumulation in an accounting path or a canonical
  serialization changes simulated charges / bytes between interpreter
  runs.  ``sorted()``, ``len()``, ``min()``, ``max()`` sanitize it.

The analysis is interprocedural and context-insensitive: per-function
summaries (return taints, plus per-literal-key taints for returned
dicts) and per-parameter input taints (unioned over every call site) are
iterated to a fixpoint over the call graph, then one collection pass
records :class:`SinkHit`\\ s.  Dict stores are **key-sensitive** —
``entry["wall"] = perf_counter() - t0`` taints only ``entry["wall"]``,
not values read through other keys — because host-side wall accounting
legitimately travels next to payload data in the service's batch
entries; only serializing the *whole* dict pulls key taints back in.

Taints carry their origin (file, line, source name) and a capped
``via`` chain of the functions they flowed through, so findings read as
a dataflow story rather than a bare sink location.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

from ..policy import CheckPolicy
from .graph import SUBMIT_LEAFS, CallGraph, FunctionInfo, dotted_name

__all__ = ["BANNED_CLOCKS", "CLOCK", "NP_RANDOM_OK", "RNG", "UNORDERED",
           "UNORDERED_ELEM", "SinkHit", "Taint", "TaintAnalysis", "Val"]

CLOCK = "clock"
RNG = "rng"
UNORDERED = "unordered"
#: A value *drawn from* unordered iteration (a set element).  The value
#: itself is deterministic — only the sequence it arrived in is not —
#: so it matters to order-sensitive accumulation, never to serializing
#: the single value.
UNORDERED_ELEM = "unordered_elem"

#: Canonical dotted names that read the host clock: the ``clock``
#: sources here, and the reads RPR001's file clause flags.
BANNED_CLOCKS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.localtime", "time.gmtime", "time.ctime", "time.asctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: numpy.random attributes that are *constructors of seeded state* (or
#: types in annotations) rather than draws from the legacy global RNG.
NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Calls that are nondeterministic regardless of arguments.
RNG_ALWAYS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: Builtins whose result does not depend on the argument's iteration
#: order — they sanitize ``unordered`` (other taints pass through).
ORDER_INSENSITIVE = frozenset({"sorted", "len", "min", "max"})

#: Method names that mutate their receiver with their arguments.
MUTATORS = frozenset({
    "append", "add", "extend", "update", "insert", "setdefault",
    "appendleft", "push", "put", "set",
})

#: Cap on the recorded flow chain; keeps taints finite under recursion.
VIA_CAP = 6

#: Rounds the fixpoint may take; reaching it unconverged is an error,
#: since the findings would then depend on the evaluation order.
MAX_FIXPOINT_ITERS = 12


@dataclass(frozen=True)
class Taint:
    """One tainted provenance: what was read, where, and the path here."""

    kind: str                # CLOCK | RNG | UNORDERED
    origin: str              # the source expression, e.g. "time.perf_counter"
    origin_rel: str
    origin_line: int
    via: tuple[str, ...] = ()   # function keys the value flowed through

    def through(self, fn_key: str) -> "Taint":
        if fn_key in self.via or len(self.via) >= VIA_CAP:
            return self
        return replace(self, via=self.via + (fn_key,))


@dataclass
class Val:
    """The abstract value of an expression: taints, plus per-key taints
    for dicts assembled/stored with literal string keys."""

    taints: set = field(default_factory=set)
    keys: dict = field(default_factory=dict)   # str -> set[Taint]

    def all_taints(self) -> set:
        out = set(self.taints)
        for ts in self.keys.values():
            out |= ts
        return out

    def merged(self, other: "Val") -> "Val":
        keys = {k: set(v) for k, v in self.keys.items()}
        for k, v in other.keys.items():
            keys.setdefault(k, set()).update(v)
        return Val(self.taints | other.taints, keys)


def _flat(vals) -> set:
    out: set = set()
    for v in vals:
        out |= v.all_taints()
    return out


def _weaken(taints) -> set:
    """Collection-order taint -> element taint (drawn from iteration)."""
    return {replace(t, kind=UNORDERED_ELEM) if t.kind == UNORDERED else t
            for t in taints}


@dataclass
class SinkHit:
    """A tainted value reaching a sink: the raw material of a finding."""

    kind: str
    rel: str
    node: ast.AST
    sink: str              # dotted sink name, or "augmented accumulation"
    taint: Taint
    fn_key: str

    def describe(self) -> str:
        """The dataflow story: origin (file:line), hops, and sink."""
        t = self.taint
        origin = f"{t.origin} ({t.origin_rel}:{t.origin_line})"
        via = ""
        if t.via:
            hops = " -> ".join(k.rsplit(".", 1)[-1] for k in t.via)
            via = f" via {hops}"
        return f"{origin}{via} reaches {self.sink}"


@dataclass
class _Summary:
    returns: set = field(default_factory=set)
    return_keys: dict = field(default_factory=dict)  # str -> set[Taint]

    def snapshot(self):
        return (frozenset(self.returns),
                tuple(sorted((k, frozenset(v))
                             for k, v in self.return_keys.items())))


class TaintAnalysis:
    """Run the fixpoint, then expose :attr:`hits` and helpers."""

    def __init__(self, graph: CallGraph, policy: CheckPolicy) -> None:
        self.graph = graph
        self.policy = policy
        self.summaries: dict[str, _Summary] = {
            key: _Summary() for key in graph.functions}
        self.param_in: dict[str, dict[str, Val]] = {
            key: {} for key in graph.functions}
        self.hits: list[SinkHit] = []

    # ------------------------------------------------------------------
    def run(self) -> None:
        order = sorted(self.graph.functions)
        for _ in range(MAX_FIXPOINT_ITERS):
            before = self._state_snapshot()
            for key in order:
                self._eval_function(self.graph.functions[key], collect=False)
            if self._state_snapshot() == before:
                break
        else:
            raise RuntimeError(
                f"taint analysis reached no fixed point in "
                f"{MAX_FIXPOINT_ITERS} rounds (MAX_FIXPOINT_ITERS)")
        self.hits = []
        for key in order:
            self._eval_function(self.graph.functions[key], collect=True)
        self._dedupe_hits()

    def hits_of(self, *kinds: str) -> list[SinkHit]:
        return [h for h in self.hits if h.kind in kinds]

    def _state_snapshot(self):
        return (
            tuple(self.summaries[k].snapshot()
                  for k in sorted(self.summaries)),
            tuple((k, tuple(sorted(
                (p, frozenset(v.all_taints()))
                for p, v in self.param_in[k].items())))
                for k in sorted(self.param_in)),
        )

    def _dedupe_hits(self) -> None:
        seen: set = set()
        out: list[SinkHit] = []
        for h in sorted(self.hits, key=lambda h: (
                h.rel, getattr(h.node, "lineno", 0), h.kind,
                h.taint.origin, h.taint.origin_line)):
            key = (h.rel, getattr(h.node, "lineno", 0), h.kind, h.sink,
                   h.taint.origin, h.taint.origin_rel, h.taint.origin_line)
            if key not in seen:
                seen.add(key)
                out.append(h)
        self.hits = out

    # ------------------------------------------------------------------
    def _eval_function(self, fn: FunctionInfo, *, collect: bool) -> None:
        mod = self.graph.modules[fn.module]
        sites = {id(s.node): s for s in self.graph.callees_of(fn.key)
                 if s.kind == "call"}
        submits = {id(s.node): s for s in self.graph.callees_of(fn.key)
                   if s.kind == "submit"}
        env: dict[str, Val] = {}
        for name, val in self.param_in[fn.key].items():
            env[name] = val.merged(Val())
        body = fn.node.body if hasattr(fn.node, "body") else []
        runner = _FunctionRun(self, fn, mod, sites, submits, env, collect)
        # Two passes settle loop-carried locals; sinks collect on the last.
        runner.collect = False
        runner.exec_block(body)
        runner.collect = collect
        runner.exec_block(body)
        summary = self.summaries[fn.key]
        summary.returns |= {t.through(fn.key) for t in runner.returns}
        for k, ts in runner.return_keys.items():
            summary.return_keys.setdefault(k, set()).update(
                t.through(fn.key) for t in ts)

    def _record_param_flow(self, callee_key: str, params: tuple[str, ...],
                           skip_self: bool, args, keywords) -> None:
        slots = self.param_in[callee_key]
        names = params[1:] if skip_self and params \
            and params[0] in ("self", "cls") else params
        for i, val in enumerate(args):
            if i < len(names):
                slots[names[i]] = slots.get(names[i], Val()).merged(val)
        for kw, val in keywords:
            if kw in params:
                slots[kw] = slots.get(kw, Val()).merged(val)


class _FunctionRun:
    """One flow-insensitive interpretation of a function body."""

    def __init__(self, analysis: TaintAnalysis, fn: FunctionInfo, mod,
                 sites, submits, env: dict[str, Val],
                 collect: bool) -> None:
        self.an = analysis
        self.fn = fn
        self.mod = mod
        self.sites = sites
        self.submits = submits
        self.env = env
        self.collect = collect
        self.exempt = analysis.policy.is_taint_exempt(mod.rel)
        self.returns: set = set()
        self.return_keys: dict = {}

    # -- statements -----------------------------------------------------
    def exec_block(self, stmts) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # separate graph nodes
        if isinstance(stmt, ast.Assign):
            val = self.eval(stmt.value)
            for target in stmt.targets:
                self.assign(target, val)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self.assign(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            val = self.eval(stmt.value)
            slot = self._slot(stmt.target)
            cur = self.env.get(slot, Val()) if slot else Val()
            merged = cur.merged(val)
            if slot:
                self.env[slot] = merged
            if self.collect and isinstance(stmt.op, (ast.Add, ast.Sub,
                                                     ast.Mult)):
                self._accumulation_sink(stmt, val)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                val = self.eval(stmt.value)
                self.returns |= val.taints
                for k, ts in val.keys.items():
                    self.return_keys.setdefault(k, set()).update(ts)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            it = self.eval(stmt.iter)
            self.assign(stmt.target, Val(_weaken(it.taints)))
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self.eval(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                val = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, val)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
        elif isinstance(stmt, ast.Delete):
            pass
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
                elif isinstance(child, ast.stmt):
                    self.exec_stmt(child)

    # -- assignment targets ---------------------------------------------
    def _slot(self, target: ast.AST) -> str | None:
        """The env slot a simple target writes: name or ``self.attr``."""
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name) and target.value.id in ("self",
                                                                "cls"):
            return f"{target.value.id}.{target.attr}"
        return None

    def assign(self, target: ast.AST, val: Val) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            spread = Val(val.all_taints())
            for elt in target.elts:
                self.assign(elt, spread)
            return
        if isinstance(target, ast.Subscript):
            base_slot = self._slot(target.value)
            if base_slot is None:
                return
            base = self.env.setdefault(base_slot, Val())
            key = _literal_key(target.slice)
            if key is not None:
                base.keys.setdefault(key, set()).update(val.all_taints())
            else:
                base.taints |= val.all_taints()
            return
        if isinstance(target, ast.Starred):
            self.assign(target.value, val)
            return
        slot = self._slot(target)
        if slot is not None:
            self.env[slot] = val

    # -- expressions ----------------------------------------------------
    def eval(self, node: ast.AST | None) -> Val:
        if node is None or isinstance(node, ast.Constant):
            return Val()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, Val())
        if isinstance(node, ast.Attribute):
            slot = self._slot(node)
            if slot is not None and slot in self.env:
                return self.env[slot]
            base = self.eval(node.value)
            return Val(set(base.taints))
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            self.eval(node.slice)
            key = _literal_key(node.slice)
            if key is not None:
                return Val(set(base.taints) | set(base.keys.get(key, ())))
            return Val(base.all_taints())
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, (ast.Set, ast.SetComp)):
            if isinstance(node, ast.SetComp):
                inner = self._comp_taints(node)
            else:
                inner = _flat(self.eval(c)
                              for c in ast.iter_child_nodes(node)
                              if isinstance(c, ast.expr))
            return Val(inner | self._sources(UNORDERED, "set display",
                                             node))
        if isinstance(node, ast.Dict):
            out = Val()
            for key_node, value in zip(node.keys, node.values):
                vval = self.eval(value)
                if key_node is None:            # ** expansion
                    out = out.merged(vval)
                    continue
                self.eval(key_node)
                key = _literal_key(key_node)
                if key is not None:
                    out.keys.setdefault(key, set()).update(
                        vval.all_taints())
                else:
                    out.taints |= vval.all_taints()
            return out
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return Val(self._comp_taints(node))
        if isinstance(node, (ast.List, ast.Tuple)):
            return Val(_flat(self.eval(e) for e in node.elts))
        if isinstance(node, ast.Lambda):
            return Val()
        if isinstance(node, (ast.Await, ast.Starred, ast.NamedExpr,
                             ast.UnaryOp, ast.FormattedValue)):
            child = (node.value if not isinstance(node, ast.UnaryOp)
                     else node.operand)
            val = self.eval(child)
            if isinstance(node, ast.NamedExpr):
                self.assign(node.target, val)
            return val if isinstance(node, (ast.Await, ast.NamedExpr)) \
                else Val(val.all_taints())
        # BinOp, BoolOp, Compare, IfExp, JoinedStr, Slice, ...
        return Val(_flat(self.eval(c) for c in ast.iter_child_nodes(node)
                         if isinstance(c, ast.expr)))

    def _comp_taints(self, node) -> set:
        taints: set = set()
        for gen in node.generators:
            it = self.eval(gen.iter).all_taints()
            taints |= it
            self.assign(gen.target, Val(_weaken(it)))
            for cond in gen.ifs:
                taints |= self.eval(cond).all_taints()
        for attr in ("elt", "key", "value"):
            sub = getattr(node, attr, None)
            if sub is not None:
                taints |= self.eval(sub).all_taints()
        return taints

    # -- calls ----------------------------------------------------------
    def eval_call(self, node: ast.Call) -> Val:
        args = [self.eval(a) for a in node.args]
        keywords = [(kw.arg, self.eval(kw.value)) for kw in node.keywords]
        arg_taints = _flat(args) | _flat(v for _, v in keywords)
        name = dotted_name(node.func, self.mod.aliases)
        leaf = name.rsplit(".", 1)[-1] if name else ""

        base_val = Val()
        if isinstance(node.func, ast.Attribute):
            base_val = self.eval(node.func.value)
            if leaf in MUTATORS:
                slot = self._slot(node.func.value)
                if slot is not None:
                    self.env.setdefault(slot, Val()).taints |= arg_taints

        src = self._call_source(node, name, args, keywords)
        if src is not None:
            return Val({src} | arg_taints)

        if name in ("set", "frozenset"):
            return Val(arg_taints | self._sources(
                UNORDERED, f"{name}()", node))
        if leaf in ORDER_INSENSITIVE and name == leaf:
            kept = {t for t in arg_taints
                    if t.kind not in (UNORDERED, UNORDERED_ELEM)}
            return Val(kept)

        if self.collect:
            self._call_sinks(node, name, leaf, args, keywords)

        if leaf in SUBMIT_LEAFS:
            submitted = self._submit_flow(node, args)
            if submitted is not None:
                return submitted

        site = self.sites.get(id(node))
        if site is not None and site.callee in self.an.summaries:
            callee = self.an.graph.functions[site.callee]
            self.an._record_param_flow(
                site.callee, callee.params,
                skip_self=callee.class_name is not None, args=args,
                keywords=keywords)
            summary = self.an.summaries[site.callee]
            out = Val(set(summary.returns))
            for k, ts in summary.return_keys.items():
                out.keys[k] = set(ts)
            # A draw from a tainted receiver stays tainted even when the
            # method itself resolves (generator objects travel).
            out.taints |= base_val.taints
            return out

        # Unresolved call: taint flows through (str(), float(), helpers
        # outside the tree) and a method call on a tainted receiver
        # yields a tainted result (rng.random(), gen.integers(...)).
        # A single-argument wrapper (wrap_future, list, deepcopy) passes
        # the value through whole, keyed structure included.
        if len(args) == 1 and not keywords and not base_val.taints:
            return args[0]
        return Val(arg_taints | set(base_val.taints))

    def _submit_flow(self, node: ast.Call, args) -> Val | None:
        """Flow a ``submit(fn, *rest)`` call: ``rest`` enters ``fn``'s
        parameters, and the future's value is ``fn``'s return summary."""
        out: Val | None = None
        for i, arg_node in enumerate(node.args):
            site = self.submits.get(id(arg_node))
            if site is None or site.callee not in self.an.summaries:
                continue
            callee = self.an.graph.functions[site.callee]
            self.an._record_param_flow(
                site.callee, callee.params,
                skip_self=callee.class_name is not None,
                args=args[i + 1:], keywords=[])
            summary = self.an.summaries[site.callee]
            res = Val(set(summary.returns))
            for k, ts in summary.return_keys.items():
                res.keys[k] = set(ts)
            out = res if out is None else out.merged(res)
        return out

    def _call_source(self, node: ast.Call, name: str | None, args,
                     keywords) -> Taint | None:
        if name is None or self.exempt:
            return None
        if name in BANNED_CLOCKS:
            return self._source(CLOCK, name, node)
        if name in RNG_ALWAYS or name.split(".")[0] == "secrets":
            return self._source(RNG, name, node)
        parts = name.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] == "Random":
                if not node.args and not node.keywords:
                    return self._source(RNG, "unseeded random.Random()",
                                        node)
                return None
            if parts[1] in ("seed", "getstate", "setstate"):
                return None
            return self._source(RNG, name, node)   # module-global draw
        if parts[:2] == ["numpy", "random"] and len(parts) == 3:
            if parts[2] == "default_rng":
                if not node.args and not node.keywords:
                    return self._source(
                        RNG, "unseeded numpy.random.default_rng "
                             "call", node)
                return None
            if parts[2] not in NP_RANDOM_OK:
                return self._source(RNG, name, node)  # legacy global draw
        return None

    def _source(self, kind: str, origin: str, node: ast.AST) -> Taint:
        return Taint(kind=kind, origin=origin, origin_rel=self.mod.rel,
                     origin_line=getattr(node, "lineno", 0))

    def _sources(self, kind: str, origin: str, node: ast.AST) -> set:
        """A one-taint set, or empty in a taint-exempt module: values a
        by-design wall-clock/telemetry module produces are sanctioned
        wherever they land."""
        if self.exempt:
            return set()
        return {self._source(kind, origin, node)}

    # -- sinks ----------------------------------------------------------
    def _call_sinks(self, node: ast.Call, name: str | None, leaf: str,
                    args, keywords) -> None:
        if name is None or self.an.policy.is_taint_exempt(self.mod.rel):
            return
        policy = self.an.policy
        arg_vals = args + [v for _, v in keywords]
        if leaf in policy.charge_calls:
            for t in _flat(arg_vals):
                if t.kind == CLOCK:
                    self._hit(CLOCK, node, name, t)
        if name in policy.taint_payload_sinks \
                or leaf in policy.taint_payload_sinks:
            for val in arg_vals:
                for t in val.all_taints():   # serialization reads keys too
                    if t.kind != UNORDERED_ELEM:  # one element is fine
                        self._hit(t.kind, node, name, t)
        if name in ("sum", "math.fsum") \
                and policy.in_accounting_path(self.mod.rel):
            for t in _flat(args):
                if t.kind in (UNORDERED, UNORDERED_ELEM):
                    self._hit(UNORDERED, node, name, t)

    def _accumulation_sink(self, stmt: ast.AugAssign, val: Val) -> None:
        policy = self.an.policy
        if policy.is_taint_exempt(self.mod.rel) \
                or not policy.in_accounting_path(self.mod.rel):
            return
        for t in val.all_taints():
            if t.kind in (UNORDERED, UNORDERED_ELEM):
                self._hit(UNORDERED, stmt, "augmented accumulation", t)

    def _hit(self, kind: str, node: ast.AST, sink: str, taint: Taint,
             ) -> None:
        self.an.hits.append(SinkHit(kind=kind, rel=self.mod.rel, node=node,
                                    sink=sink, taint=taint,
                                    fn_key=self.fn.key))


def _literal_key(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_set_literalish(node: ast.AST, aliases: dict[str, str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func, aliases) in ("set", "frozenset")
    return False
