"""Typing rule: no implicit-Optional parameters.

``def f(count: int = None)`` lies to every reader and to mypy, which
rejects it under ``no_implicit_optional`` -- but CI's mypy step covers
only the typed core, and nothing fails at run time, so the rest of
``src/`` would take the hint silently.  The fix is mechanical:
``Optional[T]``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple, Union

from .core import Finding, ModuleInfo, Rule, annotation_source, tail_name
from .registry import register

#: A function definition node, sync or async.
FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _allows_none(node: Optional[ast.expr]) -> bool:
    """Whether an annotation admits ``None``: ``Optional[T]``,
    ``Union[..., None]``, ``T | None``, ``Any``, ``object``, ``None``,
    or a string annotation mentioning any of those."""
    if isinstance(node, ast.Constant):
        text = node.value
        return text is None or (isinstance(text, str) and (
            "Optional" in text or "None" in text
            or text in ("Any", "object")))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _allows_none(node.left) or _allows_none(node.right)
    if isinstance(node, ast.Subscript):
        base = tail_name(node.value)
        if base == "Union":
            inner = node.slice
            elements = (inner.elts if isinstance(inner, ast.Tuple)
                        else [inner])
            return any(_allows_none(e) for e in elements)
        return base == "Optional"
    return node is not None and tail_name(node) in ("Any", "object",
                                                    "None")


def _args_with_defaults(func: FuncDef
                        ) -> List[Tuple[ast.arg, Optional[ast.expr]]]:
    """Each argument paired with its default expression (or None)."""
    args = func.args
    positional = list(args.posonlyargs) + list(args.args)
    no_default = len(positional) - len(args.defaults)
    pairs: List[Tuple[ast.arg, Optional[ast.expr]]] = [
        (arg, args.defaults[index - no_default]
         if index >= no_default else None)
        for index, arg in enumerate(positional)]
    pairs.extend(zip(args.kwonlyargs, args.kw_defaults))
    return pairs


@register
class ImplicitOptionalRule(Rule):
    """Flag ``param: T = None`` where T does not admit None.

    The defect: an annotation that denies ``None`` on a parameter whose
    default is ``None``.  It changes nothing at run time, so no test
    can see it; mypy can, but only over the files its CI step checks.
    """

    id = "implicit-optional"

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        """Yield every None-defaulted param whose hint forbids None."""
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            for arg, default in _args_with_defaults(func):
                if (arg.annotation is None
                        or not isinstance(default, ast.Constant)
                        or default.value is not None
                        or _allows_none(arg.annotation)):
                    continue
                hint = annotation_source(arg.annotation)
                yield module.finding(
                    self.id, arg,
                    f"{func.name}() parameter {arg.arg}: {hint} "
                    f"defaults to None; annotate as Optional[{hint}]")
