"""Interprocedural rules over the whole-program effect summaries.

Every rule here asks a question the file-local linter (ISSUE 4)
cannot: the answer depends on the *transitive closure* of a function,
not its body.  Each is a direct generalisation of a bug this repo
actually shipped and later hand-fixed:

* ``shard-purity`` -- the PR 5 wall-clock leak, as a contract: any
  worker dispatched through ``runtime.parallel.run_sharded`` must be
  transitively free of wall-clock reads, unseeded draws and mutable
  module-global writes, or serial and sharded runs diverge;
* ``unordered-iteration`` -- set iteration feeding a JSON/golden/merge
  sink without ``sorted(...)`` bakes ``PYTHONHASHSEED`` into artifact
  bytes;
* ``float-reduction-order`` -- ``sum()`` over an unordered collection
  in the merge/artifact layers makes float totals order-dependent.

A liveness cache needs no rule: it keys on ``GridTopology.fault_epoch``
(see :mod:`repro.topology.grid`), so a stale entry cannot be looked up.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from .core import (
    Finding,
    ModuleInfo,
    ProjectContext,
    Rule,
    call_name,
    tail_name,
)
from .effects import (
    DRAWS_UNSEEDED_RNG,
    EMITS_ARTIFACT,
    ITERATES_UNORDERED,
    MUTATES_MODULE_GLOBAL,
    READS_WALLCLOCK,
    SHARD_IMPURE_EFFECTS,
    EffectAnalysis,
    _SetTracker,
)
from .registry import register

#: Fan-out entry points whose first argument is a shard worker.
SHARD_DISPATCHERS = frozenset({"run_sharded"})

_EFFECT_LABEL = {
    READS_WALLCLOCK: "reads the wall clock",
    DRAWS_UNSEEDED_RNG: "draws from unseeded RNG state",
    MUTATES_MODULE_GLOBAL: "mutates a module global",
}


def _chain_text(effects: EffectAnalysis, node_id: str,
                effect: str) -> str:
    """``a -> b -> c (detail at path:line)`` for finding messages."""
    path, occurrence = effects.chain(node_id, effect)
    names = [p.rsplit(".", 1)[-1] + "()" for p in path]
    text = " -> ".join(names)
    if occurrence is not None:
        text += (f" [{occurrence.detail} at "
                 f"{occurrence.path}:{occurrence.line}]")
    return text


@register
class ShardPurityRule(Rule):
    """Workers dispatched through ``run_sharded`` must be shard-pure."""

    id = "shard-purity"
    family = "purity"
    description = ("callables dispatched through run_sharded must be "
                   "transitively free of wall-clock reads, unseeded "
                   "RNG draws, and module-global mutation, or serial "
                   "and sharded runs diverge (PR 3/PR 5 bug class)")

    def check(self, module: ModuleInfo,
              project: ProjectContext) -> Iterable[Finding]:
        """Yield impure workers at their dispatch sites."""
        graph = project.callgraph()
        effects = project.effects()
        for fnode in graph.function_nodes_of(module):
            for node in ast.walk(fnode.func):
                if not isinstance(node, ast.Call):
                    continue
                if tail_name(call_name(node, module)) \
                        not in SHARD_DISPATCHERS:
                    continue
                if not node.args:
                    continue
                worker_expr = node.args[0]
                targets = graph.resolve_callable_ref(worker_expr, fnode)
                for target in sorted(targets):
                    impure = sorted(effects.effects_of(target)
                                    & SHARD_IMPURE_EFFECTS)
                    for effect in impure:
                        worker = target.rsplit(".", 1)[-1]
                        yield module.finding(
                            self.id, node,
                            f"shard worker {worker}() {_EFFECT_LABEL[effect]} "
                            f"(transitively): "
                            f"{_chain_text(effects, target, effect)}; "
                            f"sharded and serial runs will diverge")


@register
class UnorderedIterationRule(Rule):
    """Unsorted set iteration must not feed serialized artifacts."""

    id = "unordered-iteration"
    family = "ordering"
    severity = "warning"
    description = ("iterating a set (or module-global dict view) "
                   "without sorted(...) in a function that feeds a "
                   "JSON/golden/merge sink bakes PYTHONHASHSEED into "
                   "artifact bytes")

    def check(self, module: ModuleInfo,
              project: ProjectContext) -> Iterable[Finding]:
        """Yield unordered iterations on artifact-reaching paths."""
        graph = project.callgraph()
        effects = project.effects()
        for fnode in graph.function_nodes_of(module):
            occurrences = [
                o for o in effects.occurrences.get(fnode.node_id, [])
                if o.effect == ITERATES_UNORDERED]
            if not occurrences:
                continue
            if EMITS_ARTIFACT not in effects.effects_of(fnode.node_id):
                continue
            sink = _chain_text(effects, fnode.node_id, EMITS_ARTIFACT)
            for occurrence in occurrences:
                yield Finding(
                    rule=self.id, path=module.relpath,
                    line=occurrence.line,
                    message=(f"{fnode.name}() iterates unordered "
                             f"{occurrence.detail} and feeds a "
                             f"serialized artifact ({sink}); wrap the "
                             f"iterable in sorted(...) to pin the "
                             f"byte order"))


@register
class FloatReductionOrderRule(Rule):
    """Float reductions over unordered collections in merge paths."""

    id = "float-reduction-order"
    family = "ordering"
    severity = "warning"
    description = ("sum()/fsum()/loop accumulation over a set or dict "
                   "view in the obs/scenario/experiment merge layers "
                   "is order-dependent in floating point; sort the "
                   "iterable so shard count never changes totals")
    scope = ("obs/", "scenarios/", "experiments/")

    def check(self, module: ModuleInfo,
              project: ProjectContext) -> Iterable[Finding]:
        """Yield order-dependent reductions in scoped merge code."""
        graph = project.callgraph()
        for fnode in graph.function_nodes_of(module):
            tracker = _SetTracker(fnode, graph)
            for node in ast.walk(fnode.func):
                if isinstance(node, ast.Call):
                    reduced = self._reduced_source(node, module, tracker)
                    if reduced is not None:
                        yield module.finding(
                            self.id, node,
                            f"{fnode.name}() reduces over unordered "
                            f"{reduced}; float addition is not "
                            f"associative -- iterate "
                            f"sorted(...) so the total is "
                            f"shard-count-invariant")
                elif isinstance(node, ast.For) \
                        and tracker.is_set_valued(node.iter) \
                        and self._accumulates(node):
                    yield module.finding(
                        self.id, node.iter,
                        f"{fnode.name}() accumulates across a "
                        f"for-loop over a set-valued iterable; float "
                        f"addition is not associative -- iterate "
                        f"sorted(...) to pin the reduction order")

    @staticmethod
    def _reduced_source(call: ast.Call, module: ModuleInfo,
                        tracker: _SetTracker) -> Optional[str]:
        tail = tail_name(call_name(call, module))
        if tail not in ("sum", "fsum") or not call.args:
            return None
        arg = call.args[0]
        if tracker.is_set_valued(arg):
            return "set-valued iterable"
        if isinstance(arg, ast.Call) \
                and isinstance(arg.func, ast.Attribute) \
                and arg.func.attr in ("values", "items"):
            return f"dict .{arg.func.attr}() view"
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            source = arg.generators[0].iter
            if tracker.is_set_valued(source):
                return "set-valued iterable"
            if isinstance(source, ast.Call) \
                    and isinstance(source.func, ast.Attribute) \
                    and source.func.attr in ("values", "items"):
                return f"dict .{source.func.attr}() view"
        return None

    @staticmethod
    def _accumulates(loop: ast.For) -> bool:
        for node in ast.walk(loop):
            if isinstance(node, ast.AugAssign) \
                    and isinstance(node.op, (ast.Add, ast.Mult)):
                return True
        return False
