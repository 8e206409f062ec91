"""RPR012 — cross-process state: worker-side writes the parent reads.

The service executes batches in worker *processes* (``ShardPools`` →
``pool.submit(execute_batch, payload)``): a module global mutated inside
``execute_batch`` or anything it calls changes only the worker's copy of
the module.  If the parent process also reads that global, the two sides
silently disagree — the classic fork-state bug that no single-file rule
can see, because the write and the read are both individually innocent.

Detection is interprocedural: the worker-side set is every function
reachable (through call *and* submit edges) from the policy's
cross-process entry points; a finding is a mutation, inside that set, of
a module global defined in a cross-process state module, when at least
one *parent-side* (non-reachable) function reads the same global.
Worker-side **reads** are fine (config constants fan out at fork), and
globals the parent never looks at are worker-local scratch by
definition.
"""

from __future__ import annotations

import ast

from ..rules import Rule, register
from .context import ProgramContext
from .graph import CallGraph, FunctionInfo, ModuleInfo

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "add", "clear", "extend", "update", "pop", "remove",
    "discard", "insert", "setdefault", "popitem", "appendleft",
    "push", "put", "inc", "dec", "set",
})


def _own_nodes(fn: FunctionInfo):
    """Nodes lexically inside ``fn`` but not inside a nested def/class."""
    skip: set[int] = set()
    for node in ast.walk(fn.node):
        if node is fn.node:
            continue
        if id(node) in skip:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            for sub in ast.walk(node):
                skip.add(id(sub))
            continue
        yield node


def _declared_globals(fn: FunctionInfo) -> set[str]:
    return {name for node in _own_nodes(fn)
            if isinstance(node, ast.Global) for name in node.names}


def _bound_names(target: ast.AST) -> set:
    """Names a target expression *binds* — a subscript/attribute store
    mutates its base object but binds nothing."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: set = set()
        for elt in target.elts:
            out |= _bound_names(elt)
        return out
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return set()


def _locals_of(fn: FunctionInfo) -> set:
    """Names bound locally (params + plain assignments, sans ``global``)."""
    out = set(fn.params)
    for node in _own_nodes(fn):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            targets = [i.optional_vars for i in node.items
                       if i.optional_vars is not None]
        elif isinstance(node, ast.comprehension):
            targets = [node.target]
        for t in targets:
            out |= _bound_names(t)
    return out - _declared_globals(fn)


def _mutations(fn: FunctionInfo, mod: ModuleInfo):
    """``(node, name)`` for each module-global mutation inside ``fn``."""
    declared = _declared_globals(fn)
    local = _locals_of(fn)

    def is_global(name: str) -> bool:
        return name in mod.globals and (name in declared
                                        or name not in local)

    for node in _own_nodes(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if isinstance(t, ast.Name) and t.id in declared \
                        and t.id in mod.globals:
                    yield node, t.id
                elif isinstance(t, ast.Subscript) and isinstance(
                        t.value, ast.Name) and is_global(t.value.id):
                    yield node, t.value.id
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) \
                and node.func.attr in MUTATOR_METHODS \
                and isinstance(node.func.value, ast.Name) \
                and is_global(node.func.value.id):
            yield node, node.func.value.id


def _read_globals(fn: FunctionInfo, mod: ModuleInfo) -> set[str]:
    """Module globals ``fn`` reads (Load refs not shadowed by a local)."""
    local = _locals_of(fn)
    return {node.id for node in _own_nodes(fn)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in mod.globals and node.id not in local}


def _entry_keys(graph: CallGraph, policy) -> set[str]:
    entries = {fn.key for fn in graph.functions.values()
               if fn.leaf in policy.cross_process_entries}
    entries |= {site.callee for site in graph.submitted()
                if site.callee is not None}
    return entries


@register
class CrossProcessState(Rule):
    id = "RPR012"
    name = "cross-process-state"
    summary = ("module globals mutated in worker-process callees "
               "(execute_batch and friends) that the parent also reads")
    rationale = ("a worker process mutates its own copy of the module; "
                 "the parent's reader sees the pre-fork value forever — "
                 "return state in the worker's result payload instead "
                 "of mutating globals")

    def check_program(self, program: ProgramContext) -> None:
        graph = program.graph
        policy = program.policy
        reachable = graph.reachable_from(_entry_keys(graph, policy))
        reader_sets: dict[str, dict[str, set[str]]] = {}
        for key in sorted(reachable):
            fn = graph.functions[key]
            mod = graph.modules[fn.module]
            if fn.qualname == "<module>" \
                    or not policy.is_cross_process_state_module(mod.rel):
                continue
            if fn.module not in reader_sets:
                reader_sets[fn.module] = {
                    other.key: _read_globals(other, mod)
                    for other in mod.functions.values()
                    if other.key not in reachable
                    and other.qualname != "<module>"}
            for node, name in _mutations(fn, mod):
                readers = [
                    graph.functions[k]
                    for k, names in reader_sets[fn.module].items()
                    if name in names]
                if not readers:
                    continue
                reader = sorted(readers, key=lambda f: f.lineno)[0]
                program.report(
                    mod.rel, node,
                    f"module global '{name}' ({mod.rel}:"
                    f"{mod.globals[name]}) is mutated in the worker "
                    f"process (reachable from "
                    f"{'/'.join(sorted(policy.cross_process_entries))}) "
                    f"but read by parent-side '{reader.qualname}'; the "
                    f"parent never sees this write")
