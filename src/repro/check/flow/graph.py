"""Whole-program call graph over the checked tree.

Nodes are functions (module-level defs, methods, and nested defs); edges
are resolved call sites.  Resolution is deliberately *syntactic but
canonical*: it reuses the engine's alias discipline — every name is
normalised to its defining module's dotted path — and extends it with
the three resolution steps the per-file rules cannot do:

* **relative imports** — ``from .model import run_driver`` inside
  ``repro.service.workers`` binds ``run_driver`` to
  ``repro.service.model.run_driver``;
* **method attribution** — ``self.method()`` resolves through the
  enclosing class (and its known bases); ``self.attr.method()`` and
  ``obj.method()`` resolve through inferred attribute/local types
  (``self.attr = ClassName(...)`` in any method, ``attr: ClassName``
  annotations, ``obj = ClassName(...)`` locals);
* **submitted callables** — a bare function reference passed to a
  pool-submit name (``pool.submit(execute_batch, payload)``) records a
  ``submit`` edge: the function is not called here, but it *will* run,
  in another thread or process (RPR005/RPR012 territory).

The graph is a pure function of the parsed sources: node keys are
``module.qualname`` strings, edges are kept in deterministic source
order, and :meth:`CallGraph.to_dict` is byte-stable — which is what lets
``tests/check`` pin a golden snapshot of the service's graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["CallGraph", "CallSite", "ClassInfo", "FunctionInfo",
           "ModuleInfo", "build_graph", "module_name_of", "resolve_aliases"]

#: Leaf names whose call hands an argument callable to an executor.
SUBMIT_LEAFS = ("submit", "parallel_map", "run_in_executor", "map")


def module_name_of(rel: str) -> str:
    """Dotted module name for a POSIX path relative to the package base.

    ``repro/service/server.py`` -> ``repro.service.server``;
    ``repro/service/__init__.py`` -> ``repro.service``.
    """
    name = rel[:-3] if rel.endswith(".py") else rel
    name = name.replace("/", ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


def resolve_aliases(tree: ast.Module, module: str,
                    is_package: bool) -> dict[str, str]:
    """Local name -> canonical dotted target, relative imports included.

    Extends :func:`repro.check.rules._import_aliases` (same shape, same
    absolute-import behaviour) by resolving ``from .`` / ``from ..``
    against ``module``, so cross-module edges inside the checked package
    resolve without the package being importable.
    """
    package = module if is_package else module.rsplit(".", 1)[0]
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                if node.level - 1 >= len(parts):
                    continue  # escapes the checked tree; unresolvable
                base = ".".join(parts[: len(parts) - (node.level - 1)])
                target = f"{base}.{node.module}" if node.module else base
            elif node.module:
                target = node.module
            else:  # pragma: no cover - `from import` is a syntax error
                continue
            for a in node.names:
                if a.name != "*":
                    aliases[a.asname or a.name] = f"{target}.{a.name}"
    return aliases


def dotted_name(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a Name/Attribute chain, or ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One graph node: a def (or a module's top-level statement body)."""

    key: str                 # "module.qualname" ("module.<module>" for bodies)
    module: str
    qualname: str
    rel: str
    node: ast.AST            # FunctionDef | AsyncFunctionDef | Module
    lineno: int
    is_async: bool = False
    class_name: str | None = None
    params: tuple[str, ...] = ()

    @property
    def leaf(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ClassInfo:
    """One class: its methods, known bases, and inferred attribute types."""

    key: str                 # "module.ClassName"
    module: str
    name: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    bases: tuple[str, ...] = ()          # canonical dotted base names
    attr_types: dict[str, str] = field(default_factory=dict)  # attr -> class key


@dataclass
class ModuleInfo:
    """One checked file: names, defs, classes, aliases, globals."""

    name: str
    rel: str
    tree: ast.Module
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)  # qualname
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    globals: dict[str, int] = field(default_factory=dict)  # name -> def line


@dataclass
class CallSite:
    """One resolved (or resolution-attempted) call edge."""

    caller: str              # FunctionInfo.key
    callee: str | None       # FunctionInfo.key, or None when unresolved
    name: str                # the canonical dotted name at the site
    node: ast.AST            # the Call node (or the passed callable ref)
    rel: str
    lineno: int
    kind: str = "call"       # "call" | "submit" | "init"


class CallGraph:
    """Functions, classes, and resolved call edges of one checked tree."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.calls: list[CallSite] = []
        self._out: dict[str, list[CallSite]] = {}
        self._in: dict[str, list[CallSite]] = {}

    # -- queries --------------------------------------------------------
    def callees_of(self, key: str) -> list[CallSite]:
        return self._out.get(key, [])

    def callers_of(self, key: str) -> list[CallSite]:
        return self._in.get(key, [])

    def reachable_from(self, keys) -> set[str]:
        """Function keys reachable through call *and* submit edges."""
        seen: set[str] = set()
        stack = [k for k in keys if k in self.functions]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for site in self._out.get(cur, ()):
                if site.callee is not None and site.callee not in seen:
                    stack.append(site.callee)
        return seen

    def submitted(self) -> list[CallSite]:
        """Every ``submit``-kind edge (callables handed to executors)."""
        return [s for s in self.calls if s.kind == "submit"]

    def to_dict(self) -> dict:
        """Deterministic JSON form (the golden-snapshot surface)."""
        return {
            "version": 1,
            "functions": {
                key: {
                    "rel": fn.rel, "line": fn.lineno,
                    "async": fn.is_async,
                    "class": fn.class_name,
                }
                for key, fn in sorted(self.functions.items())
            },
            "edges": [
                {"caller": s.caller, "callee": s.callee, "name": s.name,
                 "line": s.lineno, "kind": s.kind}
                for s in self.calls if s.callee is not None
            ],
        }

    # -- construction ---------------------------------------------------
    def add_function(self, fn: FunctionInfo) -> None:
        self.functions[fn.key] = fn

    def add_call(self, site: CallSite) -> None:
        self.calls.append(site)
        self._out.setdefault(site.caller, []).append(site)
        if site.callee is not None:
            self._in.setdefault(site.callee, []).append(site)


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
def build_graph(files) -> CallGraph:
    """Build the call graph for ``files``: iterable of ``(rel, tree)``.

    ``rel`` is the POSIX path relative to the package base (the same
    paths findings carry); ``tree`` the parsed :class:`ast.Module`.
    """
    graph = CallGraph()
    for rel, tree in files:
        _collect_module(graph, rel, tree)
    _infer_attr_types(graph)
    for mod in graph.modules.values():
        _collect_calls(graph, mod)
    return graph


def _collect_module(graph: CallGraph, rel: str, tree: ast.Module) -> None:
    name = module_name_of(rel)
    mod = ModuleInfo(name=name, rel=rel, tree=tree,
                     aliases=resolve_aliases(tree, name,
                                             rel.endswith("__init__.py")))
    graph.modules[name] = mod
    body_fn = FunctionInfo(key=f"{name}.<module>", module=name,
                           qualname="<module>", rel=rel, node=tree, lineno=1)
    graph.add_function(body_fn)
    mod.functions["<module>"] = body_fn

    def walk_defs(nodes, prefix: str, class_info: ClassInfo | None) -> None:
        for stmt in nodes:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                fn = FunctionInfo(
                    key=f"{name}.{qual}", module=name, qualname=qual,
                    rel=rel, node=stmt, lineno=stmt.lineno,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                    class_name=class_info.name if class_info else None,
                    params=tuple(a.arg for a in (
                        stmt.args.posonlyargs + stmt.args.args
                        + stmt.args.kwonlyargs)),
                )
                graph.add_function(fn)
                mod.functions[qual] = fn
                if class_info is not None and "." not in qual.replace(
                        f"{class_info.name}.", "", 1):
                    class_info.methods[stmt.name] = fn
                walk_defs(stmt.body, f"{qual}.", class_info)
            elif isinstance(stmt, ast.ClassDef) and class_info is None \
                    and not prefix:
                cls = ClassInfo(
                    key=f"{name}.{stmt.name}", module=name, name=stmt.name,
                    node=stmt,
                    bases=tuple(b for b in (
                        dotted_name(base, mod.aliases)
                        for base in stmt.bases) if b),
                )
                graph.classes[cls.key] = cls
                mod.classes[stmt.name] = cls
                walk_defs(stmt.body, f"{stmt.name}.", cls)
            elif isinstance(stmt, (ast.If, ast.Try)):
                for sub in ast.iter_child_nodes(stmt):
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef, ast.ClassDef)):
                        walk_defs([sub], prefix, class_info)

    walk_defs(tree.body, "", None)

    # Module-level bindings (the globals RPR012 watches).
    for stmt in tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for t in targets:
            if isinstance(t, ast.Name):
                mod.globals.setdefault(t.id, stmt.lineno)
            elif isinstance(t, ast.Tuple):
                for elt in t.elts:
                    if isinstance(elt, ast.Name):
                        mod.globals.setdefault(elt.id, stmt.lineno)


def _infer_attr_types(graph: CallGraph) -> None:
    """``self.attr = ClassName(...)`` / ``attr: ClassName`` -> attr types."""
    for cls in graph.classes.values():
        mod = graph.modules[cls.module]
        for fn in cls.methods.values():
            for stmt in ast.walk(fn.node):
                value_cls = None
                target = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    value_cls = _class_of_expr(graph, mod, stmt.value)
                elif isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                    value_cls = (_class_of_expr(graph, mod, stmt.value)
                                 or _class_in_annotation(graph, mod,
                                                         stmt.annotation))
                if (value_cls and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    cls.attr_types.setdefault(target.attr, value_cls)
        # Annotated class-level attributes (`attr: ClassName` in the body).
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                found = _class_in_annotation(graph, mod, stmt.annotation)
                if found:
                    cls.attr_types.setdefault(stmt.target.id, found)


def _class_of_expr(graph: CallGraph, mod: ModuleInfo,
                   expr: ast.AST | None) -> str | None:
    """The class key constructed by ``expr``, when it is a known call."""
    if not isinstance(expr, ast.Call):
        return None
    name = dotted_name(expr.func, mod.aliases)
    if name is None:
        return None
    return _lookup_class(graph, mod, name)


def _class_in_annotation(graph: CallGraph, mod: ModuleInfo,
                         annotation: ast.AST | None) -> str | None:
    """First known class named inside an annotation expression."""
    if annotation is None:
        return None
    for node in ast.walk(annotation):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = dotted_name(node, mod.aliases)
            if name:
                found = _lookup_class(graph, mod, name)
                if found:
                    return found
    return None


def _lookup_class(graph: CallGraph, mod: ModuleInfo,
                  name: str) -> str | None:
    if name in mod.classes:
        return mod.classes[name].key
    if name in graph.classes:
        return name
    # "pkg.module.Class" spelled through an alias or absolute import.
    if "." in name:
        head, leaf = name.rsplit(".", 1)
        other = graph.modules.get(head)
        if other is not None and leaf in other.classes:
            return other.classes[leaf].key
    return None


def _lookup_function(graph: CallGraph, name: str) -> str | None:
    """A function key for a canonical dotted name, or ``None``.

    Tries the longest module prefix: ``repro.service.model.run_driver``
    splits into module ``repro.service.model`` + qualname ``run_driver``;
    ``repro.service.cache.ShardedResultCache.get`` into the module plus
    ``ShardedResultCache.get``.
    """
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        mod = graph.modules.get(".".join(parts[:cut]))
        if mod is None:
            continue
        qual = ".".join(parts[cut:])
        if qual in mod.functions:
            return mod.functions[qual].key
        cls = mod.classes.get(parts[cut])
        if cls is not None and len(parts) == cut + 1:
            init = cls.methods.get("__init__")
            return init.key if init else None
        if cls is not None and len(parts) == cut + 2:
            found = _method_on(graph, cls, parts[cut + 1])
            if found:
                return found
    return None


def _method_on(graph: CallGraph, cls: ClassInfo,
               method: str) -> str | None:
    """Resolve a method on a class, walking known bases (one pass)."""
    seen: set[str] = set()
    stack = [cls]
    while stack:
        cur = stack.pop(0)
        if cur.key in seen:
            continue
        seen.add(cur.key)
        if method in cur.methods:
            return cur.methods[method].key
        for base in cur.bases:
            base_key = _lookup_class(graph, graph.modules[cur.module], base)
            if base_key and base_key in graph.classes:
                stack.append(graph.classes[base_key])
    return None


def _collect_calls(graph: CallGraph, mod: ModuleInfo) -> None:
    for fn in _body_order(mod):
        local_types = _local_types(graph, mod, fn)
        nested = {f.leaf: f.key for f in mod.functions.values()
                  if f.qualname.startswith(f"{fn.qualname}.")
                  and f.qualname.count(".") == fn.qualname.count(".") + 1}
        for call in _own_calls(fn):
            name = dotted_name(call.func, mod.aliases)
            if name is None:
                continue
            callee = _resolve_call(graph, mod, fn, name, nested, local_types)
            graph.add_call(CallSite(
                caller=fn.key, callee=callee, name=name, node=call,
                rel=mod.rel, lineno=call.lineno))
            leaf = name.rsplit(".", 1)[-1]
            if leaf in SUBMIT_LEAFS:
                for arg in call.args:
                    ref = dotted_name(arg, mod.aliases)
                    if ref is None:
                        continue
                    target = _resolve_call(graph, mod, fn, ref, nested,
                                           local_types)
                    if target is not None:
                        graph.add_call(CallSite(
                            caller=fn.key, callee=target, name=ref,
                            node=arg, rel=mod.rel, lineno=arg.lineno,
                            kind="submit"))


def _body_order(mod: ModuleInfo):
    return sorted(mod.functions.values(), key=lambda f: (f.lineno, f.key))


def _own_calls(fn: FunctionInfo):
    """Call nodes lexically inside ``fn`` but not inside a nested def."""
    skip: set[int] = set()
    root = fn.node
    for node in ast.walk(root):
        if node is root:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            for sub in ast.walk(node):
                skip.add(id(sub))
    for node in ast.walk(root):
        if isinstance(node, ast.Call) and id(node) not in skip:
            yield node


def _local_types(graph: CallGraph, mod: ModuleInfo,
                 fn: FunctionInfo) -> dict[str, str]:
    """Local/parameter name -> class key, from constructor assignments
    and parameter annotations inside ``fn``."""
    out: dict[str, str] = {}
    node = fn.node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for arg in (node.args.posonlyargs + node.args.args
                    + node.args.kwonlyargs):
            found = _class_in_annotation(graph, mod, arg.annotation)
            if found:
                out[arg.arg] = found
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            found = _class_of_expr(graph, mod, stmt.value)
            if found:
                out.setdefault(stmt.targets[0].id, found)
    return out


def _resolve_call(graph: CallGraph, mod: ModuleInfo, fn: FunctionInfo,
                  name: str, nested: dict[str, str],
                  local_types: dict[str, str]) -> str | None:
    parts = name.split(".")
    head = parts[0]
    # self.method() / cls.method() / self.attr.method()
    if head in ("self", "cls") and fn.class_name is not None:
        cls = mod.classes.get(fn.class_name)
        if cls is None:
            return None
        if len(parts) == 2:
            return _method_on(graph, cls, parts[1])
        if len(parts) == 3:
            attr_cls = cls.attr_types.get(parts[1])
            if attr_cls and attr_cls in graph.classes:
                return _method_on(graph, graph.classes[attr_cls], parts[2])
        return None
    # obj.method() with an inferred local/parameter type.
    if len(parts) == 2 and head in local_types:
        owner = graph.classes.get(local_types[head])
        if owner is not None:
            return _method_on(graph, owner, parts[1])
    if len(parts) == 1:
        if head in nested:
            return nested[head]
        if head in mod.functions:
            return mod.functions[head].key
        if head in mod.classes:
            init = mod.classes[head].methods.get("__init__")
            return init.key if init else None
        return None
    # Class.method in the same module.
    if parts[0] in mod.classes:
        found = _method_on(graph, mod.classes[parts[0]], parts[1]) \
            if len(parts) == 2 else None
        if found:
            return found
    # Fully-qualified (alias-resolved) name across the checked tree.
    return _lookup_function(graph, name)
