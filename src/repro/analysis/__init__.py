"""Invariant-enforcing static analysis for the reproduction.

``repro lint`` (and the tier-1 self-test) run AST rules that encode
the two architectural contracts tests cannot see until they break:

* the paper's **statelessness** contract -- SpaceCore-path NFs hold no
  per-UE durable state (Fig. 9);
* the runtime's **determinism** contract -- seeded randomness only,
  no salted ``hash()`` in seed/key derivation, no wall-clock reads in
  simulated code, sound cache keys, no mutation of frozen snapshots.

Since ISSUE 9 the analyzer is whole-program: :mod:`.callgraph`
resolves intra-project calls and :mod:`.effects` runs a fixed-point
effect inference over them, so the interprocedural rules
(:mod:`.rules_interprocedural`) can ask transitive questions --
"does this ``run_sharded`` worker ever read the wall clock?", "does
this set iteration reach a JSON sink?" -- that file-local rules
cannot.

See DESIGN.md "Static analysis & invariants" for the rule catalogue,
suppression syntax, and how to add a rule.
"""

from .baseline import BASELINE_FILENAME, Baseline
from .callgraph import CallGraph, FunctionNode, build_callgraph
from .core import Finding, ModuleInfo, ProjectContext, Rule
from .effects import (
    ALL_EFFECTS,
    SHARD_IMPURE_EFFECTS,
    EffectAnalysis,
    EffectOccurrence,
    analyze_effects,
)
from .registry import all_rules, get_rules, register
from .reporting import JSON_SCHEMA_VERSION, build_report
from .runner import (
    GRAPH_SCHEMA_VERSION,
    AnalysisResult,
    analyze,
    default_target,
    lint_main,
    render_graph,
)

__all__ = [
    "ALL_EFFECTS",
    "AnalysisResult",
    "BASELINE_FILENAME",
    "Baseline",
    "CallGraph",
    "EffectAnalysis",
    "EffectOccurrence",
    "Finding",
    "FunctionNode",
    "GRAPH_SCHEMA_VERSION",
    "JSON_SCHEMA_VERSION",
    "ModuleInfo",
    "ProjectContext",
    "Rule",
    "SHARD_IMPURE_EFFECTS",
    "all_rules",
    "analyze",
    "analyze_effects",
    "build_callgraph",
    "build_report",
    "default_target",
    "get_rules",
    "lint_main",
    "register",
    "render_graph",
]
