"""Project-wide call graph: who calls whom, resolved at the AST.

The file-local rules of ISSUE 4 stop at module boundaries, and that is
exactly where the bugs that motivated ISSUE 9 lived: a ``time.time()``
two call-hops below a sharded worker.  This pass builds the
whole-program structure the effect inference (:mod:`.effects`) runs
its fixed point over:

* **nodes** -- every function and method defined in the analyzed file
  set, identified as ``<module>.<qualname>``
  (``repro.topology.batch_routing.BatchGeoRouter.route_batch``);
* **edges** -- resolved intra-project calls.  Resolution is
  deliberately syntactic but layered: module-level names, import
  aliases (including relative imports), ``self.method`` dispatch with
  base-class search, parameter/attribute type annotations
  (``topology: GridTopology`` makes ``topology.fail_satellite()``
  resolve), local ``x = ClassName(...)`` inference, decorator
  arguments (``@register(_key)`` may run ``_key`` on every call),
  and -- only when a method name is defined by exactly one project
  class -- a unique-name fallback.  Callables passed as values
  (callbacks, ``run_sharded`` workers) contribute *reference* edges:
  handing a function away means it may run.

Unresolvable calls (the stdlib, numpy, truly dynamic dispatch) simply
contribute no edge; the analysis degrades to the file-local rules
rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .core import FuncDef, ModuleInfo

#: Return-annotation tails that mark a call as set-valued (iteration
#: order depends on PYTHONHASHSEED for str/object elements).
SET_ANNOTATION_TAILS = frozenset({"set", "frozenset", "Set", "FrozenSet",
                                  "AbstractSet", "MutableSet"})

#: Method names too generic for the unique-name fallback even when
#: only one project class currently defines them.
_FALLBACK_STOPLIST = frozenset({
    "get", "items", "keys", "values", "append", "add", "update", "pop",
    "copy", "clear", "close", "read", "write", "run", "send", "put",
})


def module_name(relpath: str) -> str:
    """Dotted module path of a (posix) relative file path.

    ``src/repro/experiments/cpu.py`` -> ``repro.experiments.cpu``;
    package ``__init__.py`` files name the package itself.
    """
    parts = relpath[:-3].split("/") if relpath.endswith(".py") \
        else relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionNode:
    """One function or method definition in the analyzed file set."""

    node_id: str
    modname: str
    qualname: str
    module: ModuleInfo
    func: FuncDef
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        return self.func.name

    @property
    def lineno(self) -> int:
        return self.func.lineno


@dataclass
class ClassInfo:
    """One class definition plus the lookups method dispatch needs."""

    name: str
    modname: str
    node: ast.ClassDef
    #: method name -> function node id
    methods: Dict[str, str] = field(default_factory=dict)
    #: base-class names as written (tails of dotted expressions)
    bases: List[str] = field(default_factory=list)
    #: ``self.<attr>`` -> class name, inferred from ``__init__``
    #: annotations and annotated-parameter assignments.
    attr_types: Dict[str, str] = field(default_factory=dict)

    @property
    def node_id(self) -> str:
        return f"{self.modname}.{self.name}"


class _FunctionContext:
    """Per-function facts the resolver consults (cheap, one pass)."""

    def __init__(self) -> None:
        self.self_name: Optional[str] = None
        #: local variable -> project class name (annotations + ctor
        #: assignments), for ``var.method()`` dispatch.
        self.var_types: Dict[str, str] = {}
        #: names of immediately-nested function defs.
        self.nested: Dict[str, str] = {}


def walk_function_body(func: FuncDef) -> Iterable[ast.AST]:
    """Every AST node of a function, *excluding* nested def bodies.

    Nested functions and classes are their own call-graph nodes; their
    statements must not leak effects into the enclosing function.  The
    nested ``def`` node itself is yielded (its decorators and defaults
    run in the enclosing scope).
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            stack.extend(node.decorator_list)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(d for d in node.args.defaults if d)
                stack.extend(d for d in node.args.kw_defaults if d)
            continue
        stack.extend(ast.iter_child_nodes(node))


def _annotation_tail(node: Optional[ast.expr]) -> str:
    """Tail name of an annotation's base (``Optional[GridTopology]``
    unwraps to ``GridTopology``; plain names pass through)."""
    while isinstance(node, ast.Subscript):
        base = node.value
        tail = (base.id if isinstance(base, ast.Name)
                else base.attr if isinstance(base, ast.Attribute) else "")
        if tail in ("Optional", "Final", "ClassVar", "Annotated"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                node = inner.elts[0]
            else:
                node = inner
            continue
        node = base
        break
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\"").split("[")[0].rsplit(".", 1)[-1]
    return ""


class CallGraph:
    """Resolved intra-project call/reference graph over a module set."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        #: node id -> FunctionNode
        self.nodes: Dict[str, FunctionNode] = {}
        #: caller id -> callee ids
        self.edges: Dict[str, Set[str]] = {}
        #: (modname, class name) -> ClassInfo
        self.classes: Dict[Tuple[str, str], ClassInfo] = {}
        #: class name -> infos (cross-module, possibly ambiguous)
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        #: method name -> node ids across all project classes
        self.methods_by_name: Dict[str, List[str]] = {}
        #: modname -> top-level name -> node id ("" for classes, whose
        #: value is looked up via ``classes``)
        self._toplevel_funcs: Dict[str, Dict[str, str]] = {}
        self._toplevel_classes: Dict[str, Dict[str, ClassInfo]] = {}
        #: modname -> local name -> absolute dotted import origin
        self._imports: Dict[str, Dict[str, str]] = {}
        #: id(FuncDef) -> node id, for rule lookups
        self._node_of_def: Dict[int, str] = {}
        #: id(ast.Call) -> resolved target node ids
        self.call_targets: Dict[int, Tuple[str, ...]] = {}
        self._modnames: Dict[str, ModuleInfo] = {}
        for module in self.modules:
            self._index_module(module)
        self._resolve_attr_types()
        for module in self.modules:
            for node_id in self._module_nodes.get(module.relpath, []):
                self._link_function(self.nodes[node_id])

    # -- indexing ----------------------------------------------------------

    def _index_module(self, module: ModuleInfo) -> None:
        modname = module_name(module.relpath)
        self._modnames[modname] = module
        self._toplevel_funcs.setdefault(modname, {})
        self._toplevel_classes.setdefault(modname, {})
        self._imports[modname] = self._absolute_imports(module, modname)
        self._module_nodes: Dict[str, List[str]]
        if not hasattr(self, "_module_nodes"):
            self._module_nodes = {}
        collected: List[str] = []

        def visit(parent: ast.AST, qual: List[str],
                  cls: Optional[ClassInfo]) -> None:
            for child in ast.iter_child_nodes(parent):
                if isinstance(child, ast.ClassDef):
                    info = ClassInfo(name=child.name, modname=modname,
                                     node=child)
                    for base in child.bases:
                        tail = (base.id if isinstance(base, ast.Name)
                                else base.attr
                                if isinstance(base, ast.Attribute) else "")
                        if tail:
                            info.bases.append(tail)
                    self.classes[(modname, child.name)] = info
                    self.classes_by_name.setdefault(
                        child.name, []).append(info)
                    if not qual:
                        self._toplevel_classes[modname][child.name] = info
                    visit(child, qual + [child.name], info)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    qualname = ".".join(qual + [child.name])
                    node_id = f"{modname}.{qualname}"
                    fnode = FunctionNode(
                        node_id=node_id, modname=modname,
                        qualname=qualname, module=module, func=child,
                        class_name=cls.name if cls is not None else None)
                    self.nodes[node_id] = fnode
                    self.edges.setdefault(node_id, set())
                    self._node_of_def[id(child)] = node_id
                    collected.append(node_id)
                    if not qual:
                        self._toplevel_funcs[modname][child.name] = node_id
                    if cls is not None and len(qual) == 1:
                        cls.methods[child.name] = node_id
                        self.methods_by_name.setdefault(
                            child.name, []).append(node_id)
                    visit(child, qual + [child.name], cls)
                else:
                    visit(child, qual, cls)

        visit(module.tree, [], None)
        self._module_nodes[module.relpath] = collected

    @staticmethod
    def _absolute_imports(module: ModuleInfo, modname: str
                          ) -> Dict[str, str]:
        """Local name -> absolute dotted origin, relative-aware."""
        is_package = module.relpath.endswith("__init__.py")
        parts = modname.split(".") if modname else []
        package = parts if is_package else parts[:-1]
        imports: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname
                        else alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    base = node.module or ""
                else:
                    anchor = package[:len(package) - (node.level - 1)] \
                        if node.level - 1 <= len(package) else []
                    base = ".".join(anchor + (node.module.split(".")
                                              if node.module else []))
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports[local] = (f"{base}.{alias.name}" if base
                                      else alias.name)
        return imports

    def _resolve_attr_types(self) -> None:
        """Infer ``self.<attr>`` class types from each ``__init__``."""
        for info in self.classes.values():
            init_id = info.methods.get("__init__")
            if init_id is None:
                continue
            init = self.nodes[init_id].func
            if not init.args.args:
                continue
            self_name = init.args.args[0].arg
            param_types: Dict[str, str] = {}
            for arg in (init.args.posonlyargs + init.args.args
                        + init.args.kwonlyargs):
                tail = _annotation_tail(arg.annotation)
                if tail in self.classes_by_name:
                    param_types[arg.arg] = tail
            for node in walk_function_body(init):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    annotation = node.annotation
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name):
                    continue
                tail = _annotation_tail(annotation)
                if tail in self.classes_by_name:
                    info.attr_types[target.attr] = tail
                elif isinstance(value, ast.Name) \
                        and value.id in param_types:
                    info.attr_types[target.attr] = param_types[value.id]
                elif (isinstance(value, ast.Call)
                      and isinstance(value.func, ast.Name)
                      and value.func.id in self.classes_by_name):
                    info.attr_types[target.attr] = value.func.id

    # -- resolution --------------------------------------------------------

    def node_for_def(self, func: FuncDef) -> Optional[str]:
        """The node id of a definition encountered by a rule, if any."""
        return self._node_of_def.get(id(func))

    def function_nodes_of(self, module: ModuleInfo
                          ) -> List[FunctionNode]:
        """Every function node defined in one module, in source order."""
        ids = self._module_nodes.get(module.relpath, [])
        return [self.nodes[node_id] for node_id in ids]

    def lookup_class(self, name: str, modname: str) -> Optional[ClassInfo]:
        """A class by source name: same module first, else unique
        global match, else the import table."""
        info = self.classes.get((modname, name))
        if info is not None:
            return info
        origin = self._imports.get(modname, {}).get(name)
        if origin is not None:
            resolved = self._class_for_dotted(origin)
            if resolved is not None:
                return resolved
        candidates = self.classes_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _class_for_dotted(self, dotted: str) -> Optional[ClassInfo]:
        mod, _, name = dotted.rpartition(".")
        info = self.classes.get((mod, name))
        if info is not None:
            return info
        # Re-exported through a package __init__: fall back to the
        # unique definition anywhere in the project.
        candidates = self.classes_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _method_on(self, info: ClassInfo, name: str,
                   _depth: int = 0) -> Optional[str]:
        """Method lookup with project base-class search (depth-capped)."""
        node_id = info.methods.get(name)
        if node_id is not None or _depth > 4:
            return node_id
        for base in info.bases:
            base_info = self.lookup_class(base, info.modname)
            if base_info is not None and base_info is not info:
                found = self._method_on(base_info, name, _depth + 1)
                if found is not None:
                    return found
        return None

    def _func_for_dotted(self, dotted: str) -> Tuple[str, ...]:
        """Resolve an absolute dotted name to function node ids."""
        mod, _, name = dotted.rpartition(".")
        if not name:
            return ()
        node_id = self._toplevel_funcs.get(mod, {}).get(name)
        if node_id is not None:
            return (node_id,)
        info = self._toplevel_classes.get(mod, {}).get(name)
        if info is None:
            info = self._class_for_dotted(dotted)
        if info is not None:
            init = self._method_on(info, "__init__")
            post = self._method_on(info, "__post_init__")
            return tuple(i for i in (init, post) if i is not None)
        # module.Class.method
        mod2, _, cls = mod.rpartition(".")
        if cls:
            info = self.classes.get((mod2, cls))
            if info is not None:
                found = self._method_on(info, name)
                if found is not None:
                    return (found,)
        # Re-exported function: unique global top-level name.
        candidates = [
            fid for funcs in self._toplevel_funcs.values()
            for fname, fid in funcs.items() if fname == name]
        if len(candidates) == 1 and "." in dotted:
            prefix = dotted.rsplit(".", 2)[0]
            if prefix in self._modnames or any(
                    m.startswith(prefix) for m in self._modnames):
                return (candidates[0],)
        return ()

    def resolve_callable_ref(self, expr: ast.expr,
                             fnode: FunctionNode) -> Tuple[str, ...]:
        """Node ids a callable-valued expression may refer to
        (``run_sharded(_trial, ...)``-style first arguments)."""
        ctx = self._context_for(fnode)
        return self._resolve_target(expr, fnode, ctx)

    def _context_for(self, fnode: FunctionNode) -> _FunctionContext:
        ctx = _FunctionContext()
        func = fnode.func
        args = (func.args.posonlyargs + func.args.args
                + func.args.kwonlyargs)
        if fnode.class_name is not None and func.args.args:
            ctx.self_name = func.args.args[0].arg
        for arg in args:
            tail = _annotation_tail(arg.annotation)
            if tail in self.classes_by_name:
                ctx.var_types[arg.arg] = tail
        for node in walk_function_body(func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ctx.nested[node.name] = f"{fnode.node_id}.{node.name}"
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if (isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Name)
                        and node.value.func.id in self.classes_by_name):
                    ctx.var_types[name] = node.value.func.id
        return ctx

    def _resolve_target(self, expr: ast.expr, fnode: FunctionNode,
                        ctx: _FunctionContext) -> Tuple[str, ...]:
        modname = fnode.modname
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in ctx.nested:
                return (ctx.nested[name],)
            node_id = self._toplevel_funcs.get(modname, {}).get(name)
            if node_id is not None:
                return (node_id,)
            info = self._toplevel_classes.get(modname, {}).get(name)
            if info is not None:
                init = self._method_on(info, "__init__")
                post = self._method_on(info, "__post_init__")
                return tuple(i for i in (init, post) if i is not None)
            origin = self._imports.get(modname, {}).get(name)
            if origin is not None:
                return self._func_for_dotted(origin)
            return ()
        if isinstance(expr, ast.Attribute):
            # Fully-dotted module path (``planner.record_decision``).
            dotted = self._dotted_via_imports(expr, modname)
            if dotted is not None:
                resolved = self._func_for_dotted(dotted)
                if resolved:
                    return resolved
            receiver = expr.value
            attr = expr.attr
            # self.method() / self.attr.method()
            if isinstance(receiver, ast.Name):
                if receiver.id == ctx.self_name \
                        and fnode.class_name is not None:
                    info = self.classes.get((modname, fnode.class_name))
                    if info is not None:
                        found = self._method_on(info, attr)
                        if found is not None:
                            return (found,)
                cls_name = ctx.var_types.get(receiver.id)
                if cls_name is not None:
                    target = self.lookup_class(cls_name, modname)
                    if target is not None:
                        found = self._method_on(target, attr)
                        if found is not None:
                            return (found,)
                # ClassName.method(...) as an unbound reference.
                as_class = self.lookup_class(receiver.id, modname) \
                    if receiver.id in self.classes_by_name else None
                if as_class is not None:
                    found = self._method_on(as_class, attr)
                    if found is not None:
                        return (found,)
            elif (isinstance(receiver, ast.Attribute)
                  and isinstance(receiver.value, ast.Name)
                  and receiver.value.id == ctx.self_name
                  and fnode.class_name is not None):
                info = self.classes.get((modname, fnode.class_name))
                if info is not None:
                    cls_name = info.attr_types.get(receiver.attr)
                    if cls_name is not None:
                        target = self.lookup_class(cls_name, modname)
                        if target is not None:
                            found = self._method_on(target, attr)
                            if found is not None:
                                return (found,)
            # Unique-name fallback: one project class defines it.
            if attr not in _FALLBACK_STOPLIST:
                candidates = self.methods_by_name.get(attr, [])
                if len(candidates) == 1:
                    return (candidates[0],)
        return ()

    def _dotted_via_imports(self, node: ast.Attribute,
                            modname: str) -> Optional[str]:
        parts: List[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self._imports.get(modname, {}).get(current.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    # -- edge construction -------------------------------------------------

    def _link_function(self, fnode: FunctionNode) -> None:
        ctx = self._context_for(fnode)
        edges = self.edges[fnode.node_id]

        def link_call(call: ast.Call) -> None:
            targets = self._resolve_target(call.func, fnode, ctx)
            if targets:
                self.call_targets[id(call)] = targets
                edges.update(targets)
            # Project functions handed away as arguments may run.
            for arg in list(call.args) + [k.value for k in call.keywords]:
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    edges.update(self._resolve_target(arg, fnode, ctx))

        for node in walk_function_body(fnode.func):
            if isinstance(node, ast.Call):
                link_call(node)
        for decorator in fnode.func.decorator_list:
            if isinstance(decorator, ast.Call):
                for arg in (list(decorator.args)
                            + [k.value for k in decorator.keywords]):
                    if isinstance(arg, (ast.Name, ast.Attribute)):
                        edges.update(
                            self._resolve_target(arg, fnode, ctx))

    def returns_set(self, node_id: str) -> bool:
        """Whether a project function's return annotation is a set."""
        fnode = self.nodes.get(node_id)
        if fnode is None:
            return False
        return _annotation_tail(fnode.func.returns) in SET_ANNOTATION_TAILS


def build_callgraph(modules: Sequence[ModuleInfo]) -> CallGraph:
    """Construct the project call graph over parsed modules."""
    return CallGraph(modules)
