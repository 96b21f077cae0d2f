"""Shared infrastructure for the invariant linter.

Each :class:`Rule` walks one parsed module (:class:`ModuleInfo`) and
yields :class:`Finding` records.  A rule stays in the catalogue only
while it catches a defect no test catches by running the code (DESIGN.md
"Static analysis & invariants").

Suppression is inline and self-documenting::

    self._served: Dict[str, ServedSession] = {}  # repro: ignore[stateful-nf] -- ephemeral radio-session state (Fig. 19)

A bare ``# repro: ignore`` suppresses every rule on that line; the
bracketed form suppresses only the named rules.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Set, Tuple

#: ``# repro: ignore[rule-a, rule-b]`` -- suppress the named rules.
_SUPPRESS_RULES_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_\-, ]+)\]")
#: ``# repro: ignore`` (no bracket) -- suppress every rule on the line.
_SUPPRESS_ALL_RE = re.compile(r"#\s*repro:\s*ignore(?!\[)")


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def sort_key(self) -> Tuple[str, int, str, str]:
        """Stable report order: path, then line, then rule."""
        return (self.path, self.line, self.rule, self.message)


class ModuleInfo:
    """One parsed source file and its inline suppressions."""

    def __init__(self, relpath: str, source: str, tree: ast.Module):
        self.relpath = relpath
        self.source = source
        self.tree = tree
        #: line number -> suppressed rule ids (``*`` = all rules).
        self.suppressions: Dict[int, Set[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            if "repro:" not in text:
                continue
            match = _SUPPRESS_RULES_RE.search(text)
            if match:
                self.suppressions.setdefault(lineno, set()).update(
                    r.strip() for r in match.group(1).split(",")
                    if r.strip())
            elif _SUPPRESS_ALL_RE.search(text):
                self.suppressions.setdefault(lineno, set()).add("*")

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """Whether a ``# repro: ignore`` comment covers this finding."""
        rules = self.suppressions.get(line)
        return bool(rules) and ("*" in rules or rule_id in rules)

    def finding(self, rule_id: str, node: ast.AST,
                message: str) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        return Finding(rule=rule_id, path=self.relpath,
                       line=getattr(node, "lineno", 0), message=message)


class Rule:
    """One invariant check.  Subclasses set the class attributes and
    define ``check``; registration happens via
    :func:`repro.analysis.registry.register`."""

    id: str = ""
    #: Whether ``# repro: ignore[...]`` can silence this rule.  The
    #: suppression-hygiene rule itself is exempt, or a bare ignore
    #: would hide its own finding.
    suppressible: bool = True
    #: Path scope: ``"dir/"`` entries match a directory component,
    #: other entries match a path suffix.  Empty means every file.
    scope: Tuple[str, ...] = ()
    #: Yields every violation of this rule in one module.
    check: Callable[[ModuleInfo], Iterable[Finding]]

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule runs on the given (relative) path."""
        return path_in_scope(relpath, self.scope)


def path_in_scope(relpath: str, patterns: Sequence[str]) -> bool:
    """Whether a (posix) relative path falls inside a rule's scope.

    Patterns ending in ``/`` match any path containing that directory
    component (``"fiveg/nf/"`` matches ``src/repro/fiveg/nf/amf.py``);
    other patterns match the path itself or a suffix at a path boundary
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


def annotation_source(node: Optional[ast.expr]) -> str:
    """Source text of an annotation, for messages ("" when absent)."""
    return "" if node is None else ast.unparse(node)


def tail_name(node: ast.expr) -> str:
    """The last name of a ``Name`` / ``Attribute`` chain
    (``collections.defaultdict`` -> ``defaultdict``), else ""."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""
