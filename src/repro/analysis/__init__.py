"""Invariant-enforcing static analysis for the reproduction.

``repro lint`` (and the tier-1 self-test) run file-local AST rules
that encode the two architectural contracts tests cannot see until
they break:

* the paper's **statelessness** contract -- SpaceCore-path NFs hold no
  per-UE durable state (Fig. 9);
* the runtime's **determinism** contract -- seeded randomness only,
  no salted ``hash()`` in seed/key derivation, no wall-clock reads in
  simulated code, sound cache keys, no mutation of frozen snapshots.

The contract those rules serve -- a sharded run gives the same bytes
as a serial one -- is checked by running it, not by inferring it:
``tests/test_parallel_equivalence.py`` byte-compares every
``run_sharded`` worker serial vs sharded, and ``tests/test_report.py``
replays ``repro report --check`` under two ``PYTHONHASHSEED`` values.

See DESIGN.md "Static analysis & invariants" for the rule catalogue,
suppression syntax, and how to add a rule.
"""

from .core import Finding, ModuleInfo, ProjectContext, Rule
from .registry import all_rules, get_rules, register
from .reporting import JSON_SCHEMA_VERSION, build_report
from .runner import AnalysisResult, analyze, default_target, lint_main

__all__ = [
    "AnalysisResult",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "ModuleInfo",
    "ProjectContext",
    "Rule",
    "all_rules",
    "analyze",
    "build_report",
    "default_target",
    "lint_main",
    "register",
]
