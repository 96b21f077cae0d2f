"""Rule registry: rules self-register at import time.

Adding a rule is three steps (see DESIGN.md "Static analysis &
invariants"): subclass :class:`~repro.analysis.core.Rule` in one of
the ``rules_*`` modules (or a new one), decorate it with
:func:`register`, and -- if you created a new module -- import it from
:data:`RULE_MODULES` below.  The CLI and the self-test discover rules
exclusively through this registry.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Optional, Sequence, Type

from .core import Rule

#: Modules whose import populates the registry.
RULE_MODULES = (
    "repro.analysis.rules_determinism",
    "repro.analysis.rules_statelessness",
    "repro.analysis.rules_cachekeys",
    "repro.analysis.rules_frozen",
    "repro.analysis.rules_typing",
    "repro.analysis.rules_suppressions",
)

_RULES: Dict[str, Rule] = {}
_loaded = False


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and index a rule by its id."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no id")
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _RULES[rule.id] = rule
    return rule_cls


def _ensure_loaded() -> None:
    global _loaded
    if not _loaded:
        for name in RULE_MODULES:
            importlib.import_module(name)
        _loaded = True


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    _ensure_loaded()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def get_rules(ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """The named rules (every rule when ``ids`` is None).

    Unknown ids raise ``KeyError`` with the known ids in the message,
    so a typo in ``--rules`` fails loudly instead of silently checking
    nothing.
    """
    rules = all_rules()
    if ids is None:
        return rules
    known = {rule.id: rule for rule in rules}
    missing = [rule_id for rule_id in ids if rule_id not in known]
    if missing:
        raise KeyError(
            f"unknown rule ids {missing}; known: {sorted(known)}")
    return [known[rule_id] for rule_id in ids]
