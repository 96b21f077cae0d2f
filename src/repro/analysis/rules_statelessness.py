"""Statelessness rule: the paper's Fig. 9 contract, checked at the AST.

SpaceCore moves per-UE session state *into the UE* (encrypted state
replicas) and addresses users geospatially, so the network functions
riding satellites hold no durable per-UE state.  Concretely: a class
on the SpaceCore path must not assign a mutable per-UE container
(``self._sessions = {}``-style) in its methods.

Two escape hatches, both explicit:

* the **stateful-baseline allowlist** -- the legacy 5G NFs
  (:data:`STATEFUL_BASELINE_CLASSES`) exist precisely to model the
  stateful architecture the paper argues against, so their per-UE
  tables are the point, not a bug;
* an inline ``# repro: ignore[stateful-nf] -- <why>`` for state that
  is *ephemeral by contract*, e.g. the served-session table a
  satellite keeps only while a radio session is live (exactly what
  Fig. 19 says a hijacker can steal, and nothing more).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional

from .core import Finding, ModuleInfo, Rule, annotation_source, tail_name
from .registry import register

#: Legacy NFs modelling the stateful baseline (Fig. 9 left-hand side).
STATEFUL_BASELINE_CLASSES = frozenset({
    "Amf", "Ausf", "Smf", "Udm", "Upf", "Pcf",
})

#: Attribute or annotation vocabulary that marks state as per-UE.
_PER_UE_WORDS = frozenset({
    "ue", "supi", "imsi", "guti", "tmsi", "session", "subscriber",
    "context", "bearer", "served", "serving", "paging", "registration",
})

#: One identifier token: an acronym, a (capitalised) word or a number,
#: so ``_ue_ctx`` is ``ue``, ``ctx`` and ``UEContext`` is ``UE``,
#: ``Context``; underscores and brackets separate tokens.
_TOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z]?[a-z]+|[0-9]+")


def _is_per_ue(text: str) -> bool:
    """Whether an attribute name or annotation has a per-UE token: a
    vocabulary word or its plural, whole (``ue`` names ``_served_ues``
    but not ``_queue``, ``Deque`` or ``unique_values``)."""
    for token in _TOKEN_RE.findall(text):
        word = token.lower()
        if word in _PER_UE_WORDS or (word.endswith("s")
                                     and word[:-1] in _PER_UE_WORDS):
            return True
    return False

#: Annotation roots and constructors that denote mutable containers.
_MUTABLE_TAILS = frozenset({
    "Dict", "dict", "List", "list", "Set", "set", "DefaultDict",
    "defaultdict", "OrderedDict", "Counter", "Deque", "deque", "bytearray",
    "MutableMapping", "MutableSequence", "MutableSet",
})


def _is_mutable(value: Optional[ast.expr],
                annotation: Optional[ast.expr]) -> bool:
    """Whether an assignment binds a mutable container: a display or
    comprehension, a container constructor call, or a container
    annotation."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.SetComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call) and tail_name(value.func) in _MUTABLE_TAILS:
        return True
    return annotation is not None and tail_name(annotation) in _MUTABLE_TAILS


@register
class StatefulNfRule(Rule):
    """Flag per-UE mutable containers on SpaceCore-path classes.

    The defect: a satellite NF that keeps a per-UE table on ``self``
    (``self._sessions = {}``) re-creates the stateful core the paper
    argues against (Fig. 9).  No test fails on it -- the table works --
    so only this rule stands between such a field and the tree.
    """

    id = "stateful-nf"
    scope = ("fiveg/nf/", "core/spacecore.py", "core/satellite.py")

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        """Yield per-UE ``self.<x> = {}``-style assigns off-allowlist."""
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            if class_node.name in STATEFUL_BASELINE_CLASSES:
                continue
            yield from self._check_class(module, class_node)

    def _check_class(self, module: ModuleInfo,
                     class_node: ast.ClassDef) -> Iterable[Finding]:
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            if not method.args.args:
                continue
            self_name = method.args.args[0].arg
            for node in ast.walk(method):
                finding = self._check_assign(
                    module, class_node, self_name, node)
                if finding is not None:
                    yield finding

    def _check_assign(self, module: ModuleInfo,
                      class_node: ast.ClassDef, self_name: str,
                      node: ast.AST) -> Optional[Finding]:
        annotation: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets = node.targets
            value: Optional[ast.expr] = node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            value = node.value
            annotation = node.annotation
        else:
            return None
        for target in targets:
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name):
                continue
            if not _is_mutable(value, annotation):
                continue
            if not (_is_per_ue(target.attr)
                    or _is_per_ue(annotation_source(annotation))):
                continue
            return module.finding(
                self.id, node,
                f"{class_node.name}.{target.attr} is a per-UE mutable "
                f"container on a SpaceCore-path class; UE state "
                f"belongs in the UE's state replica (Fig. 9).  If "
                f"this is ephemeral radio-session state or a stateful "
                f"baseline, allowlist the class or add "
                f"'# repro: ignore[{self.id}] -- <why>'")
        return None
