"""Shared infrastructure for the invariant-enforcing analyzer.

The analyzer exists because two architectural contracts of this
reproduction are invisible to the test suite until they are violated:

* **statelessness** -- SpaceCore-path network functions must not grow
  per-UE durable state (the paper's Fig. 9 contract; the whole point
  of UE-carried state replicas);
* **determinism** -- the sharded parallel runtime (PR 3) is only
  bit-reproducible if every random draw is seeded, every derived seed
  avoids the salted builtin ``hash()``, and simulated code never reads
  the wall clock.

Both were previously enforced by reviewer vigilance; every PR so far
hand-fixed the same bug classes.  This package checks them
mechanically: each :class:`Rule` walks a parsed module
(:class:`ModuleInfo`) with project-wide facts available through a
:class:`ProjectContext` (e.g. which classes are frozen snapshot
types), and emits :class:`Finding` records.

Suppression is inline and self-documenting::

    self._served: Dict[str, ServedSession] = {}  # repro: ignore[stateful-nf] -- ephemeral radio-session state (Fig. 19)

A bare ``# repro: ignore`` suppresses every rule on that line; the
bracketed form suppresses only the named rules and is preferred
because it survives rule additions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

#: A function definition node, sync or async.
FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: ``# repro: ignore[rule-a, rule-b]`` -- suppress the named rules.
_SUPPRESS_RULES_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_\-, ]+)\]")
#: ``# repro: ignore`` (no bracket) -- suppress every rule on the line.
_SUPPRESS_ALL_RE = re.compile(r"#\s*repro:\s*ignore(?!\[)")

#: Call targets that build a mutable container from scratch.
MUTABLE_CONSTRUCTOR_TAILS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "deque",
    "Counter", "bytearray",
})


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    #: Filled by the runner from the producing rule.
    severity: str = "error"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (the ``findings[]`` schema entry)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "severity": self.severity,
        }

    def sort_key(self) -> Tuple[str, int, str, str]:
        """Stable report order: path, then line, then rule."""
        return (self.path, self.line, self.rule, self.message)


class ModuleInfo:
    """One parsed source file plus the lookups every rule needs."""

    def __init__(self, path: Path, relpath: str, source: str,
                 tree: ast.Module):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree = tree
        #: local name -> imported module path (``np`` -> ``numpy``).
        self.import_aliases: Dict[str, str] = {}
        #: local name -> dotted origin for from-imports
        #: (``npr`` -> ``numpy.random``, ``poisson`` -> ``numpy.random.poisson``).
        self.imported_names: Dict[str, str] = {}
        #: module-level names bound to mutable containers.
        self.mutable_globals: Set[str] = set()
        #: line number -> suppressed rule ids (``*`` = all rules).
        self.suppressions: Dict[int, Set[str]] = {}
        self._index_imports()
        self._index_mutable_globals()
        self._index_suppressions()

    # -- indexing ----------------------------------------------------------

    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.import_aliases[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        self.import_aliases[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    origin = f"{base}.{alias.name}" if base else alias.name
                    self.imported_names[local] = origin

    def _index_mutable_globals(self) -> None:
        for node in self.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not is_mutable_container(value, self):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.mutable_globals.add(target.id)

    def _index_suppressions(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            if "repro:" not in text:
                continue
            match = _SUPPRESS_RULES_RE.search(text)
            if match:
                rules = {r.strip() for r in match.group(1).split(",")}
                self.suppressions.setdefault(lineno, set()).update(
                    r for r in rules if r)
            elif _SUPPRESS_ALL_RE.search(text):
                self.suppressions.setdefault(lineno, set()).add("*")

    # -- queries -----------------------------------------------------------

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """Whether a ``# repro: ignore`` comment covers this finding."""
        rules = self.suppressions.get(line)
        return bool(rules) and ("*" in rules or rule_id in rules)

    def finding(self, rule_id: str, node: ast.AST,
                message: str) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        return Finding(rule=rule_id, path=self.relpath,
                       line=getattr(node, "lineno", 0), message=message)


class ProjectContext:
    """Facts collected over the whole analyzed file set (pass 1)."""

    #: Immutable-by-contract classes that are not frozen dataclasses
    #: (arrays marked read-only, documented snapshot semantics).
    EXTRA_FROZEN_CLASSES = frozenset({"ConstellationSnapshot"})

    def __init__(self, root: Path, modules: Sequence[ModuleInfo]):
        self.root = root
        self.modules: List[ModuleInfo] = list(modules)
        self.frozen_classes: Set[str] = set(self.EXTRA_FROZEN_CLASSES)
        for module in self.modules:
            for node in ast.walk(module.tree):
                if (isinstance(node, ast.ClassDef)
                        and is_frozen_dataclass(node)):
                    self.frozen_classes.add(node.name)


class Rule:
    """One invariant check.  Subclasses set the class attributes and
    implement :meth:`check`; registration happens via
    :func:`repro.analysis.registry.register`."""

    id: str = ""
    family: str = ""
    description: str = ""
    #: ``error`` findings are contract violations; ``warning`` marks
    #: advisory hygiene rules.  Both fail the gate when new -- the tag
    #: feeds triage in the JSON report, not the exit code.
    severity: str = "error"
    #: Whether ``# repro: ignore[...]`` can silence this rule.  The
    #: suppression-hygiene rule itself is exempt, or a bare ignore
    #: would hide its own finding.
    suppressible: bool = True
    #: Path scope: ``"dir/"`` entries match a directory component,
    #: other entries match a path suffix.  Empty means every file.
    scope: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule runs on the given (relative) path."""
        return path_in_scope(relpath, self.scope)

    def check(self, module: ModuleInfo,
              project: ProjectContext) -> Iterable[Finding]:
        """Yield every violation of this rule in one module."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# AST helpers shared by the rule modules
# ---------------------------------------------------------------------------

def path_in_scope(relpath: str, patterns: Sequence[str]) -> bool:
    """Whether a (posix) relative path falls inside a rule's scope.

    Patterns ending in ``/`` match any path containing that directory
    component (``"sim/"`` matches ``src/repro/sim/engine.py``); other
    patterns match the path itself or a suffix at a path boundary
    (``"core/spacecore.py"``).
    """
    if not patterns:
        return True
    haystack = "/" + relpath
    for pattern in patterns:
        if pattern.endswith("/"):
            if ("/" + pattern) in haystack + "/":
                return True
        elif relpath == pattern or haystack.endswith("/" + pattern):
            return True
    return False


def dotted_name(node: ast.AST, module: ModuleInfo) -> Optional[str]:
    """Resolve a Name/Attribute chain through the module's imports.

    ``np.random.poisson`` -> ``numpy.random.poisson`` under
    ``import numpy as np``; ``datetime.now`` -> ``datetime.datetime.now``
    under ``from datetime import datetime``.  Returns None for
    non-name expressions (calls, subscripts, ...).
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    base = module.imported_names.get(
        current.id, module.import_aliases.get(current.id, current.id))
    parts.append(base.lstrip("."))
    return ".".join(reversed(parts))


def call_name(call: ast.Call, module: ModuleInfo) -> Optional[str]:
    """The resolved dotted name of a call's target, or None."""
    return dotted_name(call.func, module)


def tail_name(name: Optional[str]) -> str:
    """Last component of a dotted name (``numpy.random.poisson`` ->
    ``poisson``); empty string for None."""
    return name.rsplit(".", 1)[-1] if name else ""


def is_mutable_container(node: ast.expr, module: ModuleInfo) -> bool:
    """Whether an expression builds a fresh mutable container."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        return tail_name(call_name(node, module)) in MUTABLE_CONSTRUCTOR_TAILS
    return False


def is_frozen_dataclass(node: ast.ClassDef) -> bool:
    """Whether a class is decorated ``@dataclass(frozen=True)``."""
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True):
                return True
    return False


def annotation_allows_none(node: Optional[ast.expr]) -> bool:
    """Whether a parameter annotation already admits ``None``.

    Recognises ``Optional[T]``, ``Union[..., None]``, ``T | None``,
    ``Any``, ``None``, ``object``, and string annotations mentioning
    any of those.
    """
    if node is None:
        return False
    if isinstance(node, ast.Constant):
        if node.value is None:
            return True
        if isinstance(node.value, str):
            text = node.value
            return ("Optional" in text or "None" in text
                    or text in ("Any", "object"))
        return False
    if isinstance(node, ast.Name):
        return node.id in ("Any", "object", "None")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Any", "object")
    if isinstance(node, ast.Subscript):
        base = node.value
        base_tail = (base.id if isinstance(base, ast.Name)
                     else base.attr if isinstance(base, ast.Attribute)
                     else "")
        if base_tail == "Optional":
            return True
        if base_tail == "Union":
            inner = node.slice
            elements = (inner.elts if isinstance(inner, ast.Tuple)
                        else [inner])
            return any(annotation_allows_none(e) for e in elements)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (annotation_allows_none(node.left)
                or annotation_allows_none(node.right))
    return False


def annotation_source(node: Optional[ast.expr]) -> str:
    """Best-effort source text of an annotation, for messages."""
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers all exprs
        return "<annotation>"


def iter_functions(tree: ast.Module) -> Iterable[
        Tuple[FuncDef, Optional[ast.ClassDef]]]:
    """Every (async) function definition with its enclosing class.

    Only the *immediately* enclosing class matters for the rules here
    (frozen-mutation exempts a class's own methods), so nested
    functions inherit their method's class.
    """

    def visit(node: ast.AST, enclosing: Optional[ast.ClassDef]
              ) -> Iterable[Tuple[FuncDef, Optional[ast.ClassDef]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, enclosing
                yield from visit(child, enclosing)
            else:
                yield from visit(child, enclosing)

    yield from visit(tree, None)


def all_args(func: FuncDef) -> List[ast.arg]:
    """Positional-only + positional + keyword-only args, in order."""
    args = func.args
    return list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)


def bound_names(func: FuncDef) -> Set[str]:
    """Names bound locally in a function: parameters, assignment
    targets, and nested def names.  A module-global read inside the
    function is only a *global* read when its name is not in here."""
    bound: Set[str] = {a.arg for a in all_args(func)}
    if func.args.vararg:
        bound.add(func.args.vararg.arg)
    if func.args.kwarg:
        bound.add(func.args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not func:
            bound.add(node.name)
    return bound


def args_with_defaults(func: FuncDef
                       ) -> List[Tuple[ast.arg, Optional[ast.expr]]]:
    """Each argument paired with its default expression (or None)."""
    args = func.args
    positional = list(args.posonlyargs) + list(args.args)
    pairs: List[Tuple[ast.arg, Optional[ast.expr]]] = []
    no_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        default = (args.defaults[index - no_default]
                   if index >= no_default else None)
        pairs.append((arg, default))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        pairs.append((arg, default))
    return pairs
