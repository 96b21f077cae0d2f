"""Static checks for what no test can see by running the code.

``repro lint`` (and the tier-1 self-test) run file-local AST rules.
The central one is the paper's **statelessness** contract: SpaceCore-
path NFs hold no per-UE durable state (Fig. 9).  The others catch an
annotation that denies ``None`` to a ``None`` default, and waivers
that do not say why.

The determinism contract -- a sharded run gives the same bytes as a
serial one -- is checked by running it, not by inferring it:
``tests/test_parallel_equivalence.py`` byte-compares every
``run_sharded`` worker serial vs sharded, ``tests/test_report.py``
replays ``repro report --check`` under two ``PYTHONHASHSEED`` values,
and the scenario goldens and chaos sha256 pins hold the artifacts.

See DESIGN.md "Static analysis & invariants" for the rule catalogue,
suppression syntax, and how to add a rule.
"""

from .core import Finding, ModuleInfo, Rule
from .registry import all_rules, register
from .runner import AnalysisResult, analyze, lint_main

__all__ = [
    "AnalysisResult",
    "Finding",
    "ModuleInfo",
    "Rule",
    "all_rules",
    "analyze",
    "lint_main",
    "register",
]
