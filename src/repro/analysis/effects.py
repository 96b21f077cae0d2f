"""Whole-program effect inference over the call graph.

Each function gets a *direct* effect set read straight off its body,
then a fixed point propagates callee effects to callers until nothing
changes.  The result is a transitive **effect summary** per function:
"somewhere below this call, the wall clock is read", "a set is
iterated without sorting".  The interprocedural rules
(:mod:`.rules_interprocedural`) are thin predicates over these
summaries -- the PR 5 determinism bugs were one-effect-summary
questions the file-local linter could not ask.

Inline suppressions participate: a direct effect whose source line
carries ``# repro: ignore[<base rule>]`` (e.g. the planner's justified
``perf_counter`` calibration reads) is *not* recorded, so a justified
exception deep in the runtime does not poison every caller above it.

Effects
-------

``reads-wallclock``
    A :data:`~repro.analysis.rules_determinism.WALLCLOCK_CALLS` call.
``draws-unseeded-rng``
    A module-level ``random``/``numpy.random`` draw or a bare seedable
    RNG constructor.
``iterates-unordered``
    A ``for``/comprehension/``list()``/``tuple()`` over a set-valued
    expression (or ``.keys()`` of a mutable module-global dict)
    without ``sorted(...)``.
``mutates-module-global``
    A write to a mutable module global (``global``, subscript store,
    mutator-method call).  Names matching the shard-local cache
    vocabulary (``cache``/``memo``/``table``) are exempt: keyed
    memoization of pure functions is the sanctioned pattern
    (``runtime.memo``), deterministic per shard by construction.
``emits-artifact``
    A JSON/golden/merge serialization sink: the places where
    iteration order becomes bytes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .callgraph import (
    SET_ANNOTATION_TAILS,
    CallGraph,
    FunctionNode,
    walk_function_body,
)
from .core import ModuleInfo, bound_names, call_name, tail_name
from .rules_determinism import (
    NUMPY_SAMPLERS,
    SEEDABLE_CONSTRUCTORS,
    STDLIB_SAMPLERS,
    WALLCLOCK_CALLS,
)

READS_WALLCLOCK = "reads-wallclock"
DRAWS_UNSEEDED_RNG = "draws-unseeded-rng"
ITERATES_UNORDERED = "iterates-unordered"
MUTATES_MODULE_GLOBAL = "mutates-module-global"
EMITS_ARTIFACT = "emits-artifact"

ALL_EFFECTS = (
    READS_WALLCLOCK,
    DRAWS_UNSEEDED_RNG,
    ITERATES_UNORDERED,
    MUTATES_MODULE_GLOBAL,
    EMITS_ARTIFACT,
)

#: Effects that break the sharded runtime's bit-identical contract
#: when present anywhere below a ``run_sharded`` worker.
SHARD_IMPURE_EFFECTS = frozenset({
    READS_WALLCLOCK, DRAWS_UNSEEDED_RNG, MUTATES_MODULE_GLOBAL,
})

#: Inline-suppression rule ids that also waive the matching effect at
#: its source line (a justified exception must not propagate).
EFFECT_SUPPRESSORS: Dict[str, Tuple[str, ...]] = {
    READS_WALLCLOCK: ("wallclock-time", "shard-purity"),
    DRAWS_UNSEEDED_RNG: ("unseeded-rng", "shard-purity"),
    MUTATES_MODULE_GLOBAL: ("shard-purity",),
    ITERATES_UNORDERED: ("unordered-iteration",),
}

#: Container-mutating method names (receiver is modified in place).
MUTATOR_METHODS = frozenset({
    "append", "add", "update", "pop", "popitem", "clear", "extend",
    "insert", "remove", "discard", "setdefault", "appendleft",
    "extendleft",
})

#: Module globals matching this are sanctioned shard-local caches.
_CACHE_NAME_RE = re.compile(r"cache|memo|table", re.IGNORECASE)

#: Serialization sinks where iteration order becomes artifact bytes.
ARTIFACT_SINK_CALLS = frozenset({"json.dump", "json.dumps"})
ARTIFACT_SINK_TAILS = frozenset({
    "merge_snapshots", "to_json", "write_golden", "write_trace_jsonl",
})

#: Set-algebra methods whose result is itself set-valued.
_SET_METHOD_TAILS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})


@dataclass
class EffectOccurrence:
    """One direct-effect source: where an effect enters the program."""

    effect: str
    node_id: str
    path: str
    line: int
    detail: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form, used by the ``--graph`` export."""
        return {
            "effect": self.effect,
            "function": self.node_id,
            "path": self.path,
            "line": self.line,
            "detail": self.detail,
        }


def _suppressed(module: ModuleInfo, line: int, effect: str) -> bool:
    return any(module.is_suppressed(line, rule)
               for rule in EFFECT_SUPPRESSORS.get(effect, ()))


class _SetTracker:
    """Which expressions inside one function are set-valued."""

    def __init__(self, fnode: FunctionNode, graph: CallGraph):
        self.graph = graph
        self.module = fnode.module
        self.set_locals: Set[str] = set()
        func = fnode.func
        for arg in (func.args.posonlyargs + func.args.args
                    + func.args.kwonlyargs):
            if self._annotation_is_set(arg.annotation):
                self.set_locals.add(arg.arg)
        # One forward pass over simple assignments; good enough for
        # the straight-line key/merge code this targets.
        for node in walk_function_body(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                if self.is_set_valued(node.value):
                    self.set_locals.add(node.targets[0].id)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name) \
                    and self._annotation_is_set(node.annotation):
                self.set_locals.add(node.target.id)

    @staticmethod
    def _annotation_is_set(node: Optional[ast.expr]) -> bool:
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id in SET_ANNOTATION_TAILS
        if isinstance(node, ast.Attribute):
            return node.attr in SET_ANNOTATION_TAILS
        return False

    def is_set_valued(self, node: ast.expr) -> bool:
        """Whether an expression's value iterates in hash order."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_locals
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self.is_set_valued(node.left)
                    or self.is_set_valued(node.right))
        if isinstance(node, ast.Call):
            name = call_name(node, self.module)
            tail = tail_name(name)
            if tail in ("set", "frozenset"):
                return True
            if tail in _SET_METHOD_TAILS and isinstance(
                    node.func, ast.Attribute):
                return True
            # A project function annotated ``-> Set[...]``.
            targets = self.graph.call_targets.get(id(node), ())
            return any(self.graph.returns_set(t) for t in targets)
        return False


def _describe(node: ast.expr, module: ModuleInfo) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers all exprs
        return "<expr>"
    return text if len(text) <= 48 else text[:45] + "..."


class EffectAnalysis:
    """Direct effects + their transitive closure over a call graph."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        #: node id -> direct effects
        self.direct: Dict[str, Set[str]] = {}
        #: node id -> every direct occurrence (for messages/export)
        self.occurrences: Dict[str, List[EffectOccurrence]] = {}
        #: node id -> transitive effect summary
        self.summary: Dict[str, FrozenSet[str]] = {}
        for fnode in graph.nodes.values():
            occs = list(self._direct_effects(fnode))
            self.occurrences[fnode.node_id] = occs
            self.direct[fnode.node_id] = {o.effect for o in occs}
        self._fixed_point()

    # -- direct extraction -------------------------------------------------

    def _direct_effects(self, fnode: FunctionNode
                        ) -> Iterable[EffectOccurrence]:
        module = fnode.module
        func = fnode.func
        tracker = _SetTracker(fnode, self.graph)
        local = bound_names(func)
        mutable_globals = {
            name for name in module.mutable_globals
            if not _CACHE_NAME_RE.search(name)}

        def occ(effect: str, node: ast.AST, detail: str
                ) -> Optional[EffectOccurrence]:
            line = getattr(node, "lineno", func.lineno)
            if _suppressed(module, line, effect):
                return None
            return EffectOccurrence(
                effect=effect, node_id=fnode.node_id,
                path=module.relpath, line=line, detail=detail)

        def global_dict_keys(call: ast.Call) -> bool:
            """``GLOBAL.keys()`` of a mutable module-global dict."""
            return (isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("keys", "values", "items")
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id in mutable_globals
                    and call.func.value.id not in local)

        def unordered_iter(iter_expr: ast.expr) -> Optional[str]:
            if tracker.is_set_valued(iter_expr):
                return f"set-valued '{_describe(iter_expr, module)}'"
            if isinstance(iter_expr, ast.Call) \
                    and global_dict_keys(iter_expr):
                return (f"module-global dict view "
                        f"'{_describe(iter_expr, module)}'")
            return None

        for node in walk_function_body(func):
            if isinstance(node, ast.Call):
                name = call_name(node, module)
                tail = tail_name(name)
                if name in WALLCLOCK_CALLS:
                    found = occ(READS_WALLCLOCK, node, f"{name}()")
                    if found:
                        yield found
                rng = _classify_rng(node, name, tail)
                if rng is not None:
                    found = occ(DRAWS_UNSEEDED_RNG, node, rng)
                    if found:
                        yield found
                if name in ARTIFACT_SINK_CALLS \
                        or tail in ARTIFACT_SINK_TAILS:
                    found = occ(EMITS_ARTIFACT, node, f"{name or tail}()")
                    if found:
                        yield found
                if tail in ("list", "tuple", "enumerate") and node.args:
                    detail = unordered_iter(node.args[0])
                    if detail is not None:
                        found = occ(ITERATES_UNORDERED, node,
                                    f"{tail}() over {detail}")
                        if found:
                            yield found
                # In-place mutation of a module global.
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr in MUTATOR_METHODS \
                        and isinstance(node.func.value, ast.Name):
                    target = node.func.value.id
                    if target in mutable_globals and target not in local:
                        found = occ(MUTATES_MODULE_GLOBAL, node,
                                    f"{target}.{node.func.attr}(...)")
                        if found:
                            yield found
            elif isinstance(node, ast.For):
                detail = unordered_iter(node.iter)
                if detail is not None:
                    found = occ(ITERATES_UNORDERED, node.iter,
                                f"for-loop over {detail}")
                    if found:
                        yield found
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    detail = unordered_iter(generator.iter)
                    if detail is not None:
                        found = occ(ITERATES_UNORDERED, generator.iter,
                                    f"comprehension over {detail}")
                        if found:
                            yield found
            elif isinstance(node, ast.Global):
                for name in node.names:
                    found = occ(MUTATES_MODULE_GLOBAL, node,
                                f"global {name}")
                    if found:
                        yield found
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else node.targets if isinstance(node, ast.Delete)
                           else [node.target])
                for target in targets:
                    if not (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)):
                        continue
                    name = target.value.id
                    if name in mutable_globals and name not in local:
                        found = occ(MUTATES_MODULE_GLOBAL, target,
                                    f"{name}[...] store")
                        if found:
                            yield found

    # -- fixed point -------------------------------------------------------

    def _fixed_point(self) -> None:
        """Propagate callee effects to callers until stable."""
        effects: Dict[str, Set[str]] = {
            node_id: set(direct)
            for node_id, direct in self.direct.items()}
        callers: Dict[str, List[str]] = {}
        for caller, callees in self.graph.edges.items():
            for callee in callees:
                callers.setdefault(callee, []).append(caller)
        work = [node_id for node_id, eff in effects.items() if eff]
        while work:
            node_id = work.pop()
            spread = effects[node_id]
            for caller in callers.get(node_id, ()):  # pragma: no branch
                target = effects.setdefault(caller, set())
                before = len(target)
                target |= spread
                if len(target) != before:
                    work.append(caller)
        self.summary = {node_id: frozenset(eff)
                        for node_id, eff in effects.items()}

    # -- queries -----------------------------------------------------------

    def effects_of(self, node_id: str) -> FrozenSet[str]:
        """The transitive effect summary of one function."""
        return self.summary.get(node_id, frozenset())

    def chain(self, node_id: str, effect: str
              ) -> Tuple[List[str], Optional[EffectOccurrence]]:
        """A shortest call chain from ``node_id`` to a function whose
        *direct* effects include ``effect`` (BFS; for messages)."""
        if effect not in self.effects_of(node_id):
            return [], None
        seen = {node_id}
        queue: List[Tuple[str, List[str]]] = [(node_id, [node_id])]
        while queue:
            current, path = queue.pop(0)
            if effect in self.direct.get(current, ()):
                occurrence = next(
                    (o for o in self.occurrences.get(current, [])
                     if o.effect == effect), None)
                return path, occurrence
            for callee in sorted(self.graph.edges.get(current, ())):
                if callee not in seen \
                        and effect in self.effects_of(callee):
                    seen.add(callee)
                    queue.append((callee, path + [callee]))
        return [node_id], None  # pragma: no cover - summary guarantees


def _classify_rng(call: ast.Call, name: Optional[str],
                  tail: str) -> Optional[str]:
    """A human-readable description of an unseeded draw, or None."""
    if name is None:
        return None
    if name in SEEDABLE_CONSTRUCTORS and not call.args \
            and not call.keywords:
        return f"{name}() without a seed"
    root, _, rest = name.partition(".")
    if root == "random" and rest and tail in STDLIB_SAMPLERS:
        return f"{name}() on process-global state"
    if name.startswith("numpy.random.") and tail in NUMPY_SAMPLERS:
        return f"{name}() on the global numpy RNG"
    return None


def analyze_effects(graph: CallGraph) -> EffectAnalysis:
    """Run effect inference over a built call graph."""
    return EffectAnalysis(graph)
