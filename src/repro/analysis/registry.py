"""Rule registry: rules self-register at import time.

Adding a rule (see DESIGN.md "Static analysis & invariants"):
subclass :class:`~repro.analysis.core.Rule` in a ``rules_*`` module,
decorate it with :func:`register`, and -- for a new module -- list it
in :data:`RULE_MODULES`.  The CLI and the self-test find rules only
through this registry.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Type

from .core import Rule

#: Modules whose import populates the registry.
RULE_MODULES = (
    "repro.analysis.rules_statelessness",
    "repro.analysis.rules_typing",
    "repro.analysis.rules_suppressions",
)

_RULES: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and index a rule by its id."""
    rule = rule_cls()
    if not rule.id or rule.id in _RULES:
        raise ValueError(f"{rule_cls.__name__}: missing or duplicate id")
    _RULES[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    for name in RULE_MODULES:
        importlib.import_module(name)
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]
