"""Every module under ``src/repro`` is imported from a real entry point.

The roots are what a user or a measurement actually runs: the CLI
(``repro.cli`` and ``python -m repro``, whose report sections import
every paper artifact's module), ``examples/``, ``bench/`` and the lint
rule modules that ``registry.RULE_MODULES`` loads by name.  From them the walk follows
``import`` / ``from ... import`` statements (function-local ones too),
resolved by a relative-aware import map.

A name imported from a package ``__init__`` credits the submodule that
defines it, not every submodule the ``__init__`` re-exports; otherwise
one ``from repro.fiveg import SignalingBus`` would keep every codec in
``fiveg/`` alive.  A plain ``import repro.x.y`` binds only ``repro``
and so credits only the package; roots write ``from repro.x import y``.

There is no allowlist: a module that only ``tests/`` imports is
shelfware, and goes.  Each module is its own test id, so a failure
names the module.
"""

import ast
from pathlib import Path
from typing import Dict, Set

import pytest

from repro.analysis.registry import RULE_MODULES
from repro.analysis.runner import collect_files, load_module

REPO_ROOT = Path(__file__).resolve().parents[1]
ROOT_MODULES = ("repro.cli", "repro.__main__") + RULE_MODULES
ROOT_DIRS = ("examples", "bench")


def _load(path: Path):
    module, error = load_module(path, REPO_ROOT)
    assert error is None, error
    return module


def module_name(relpath: str) -> str:
    """Dotted module path of a (posix) relative file path.

    ``src/repro/experiments/cpu.py`` -> ``repro.experiments.cpu``;
    package ``__init__.py`` files name the package itself.
    """
    parts = relpath[:-3].split("/")
    if parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imports(module) -> Dict[str, str]:
    """Local name -> absolute dotted origin, relative-aware."""
    modname = module_name(module.relpath)
    parts = modname.split(".")
    package = parts if module.relpath.endswith("__init__.py") \
        else parts[:-1]
    imports: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                imports[alias.asname or top] = \
                    alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = package[:len(package) - (node.level - 1)] \
                    if node.level - 1 <= len(package) else []
                base = ".".join(anchor + (node.module.split(".")
                                          if node.module else []))
            for alias in node.names:
                imports[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name)
    return imports


def _toplevel_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def reached_modules() -> Set[str]:
    """Dotted names of the ``src/repro`` modules the roots import."""
    src = {}
    for path in collect_files([REPO_ROOT / "src" / "repro"]):
        module = _load(path)
        src[module_name(module.relpath)] = module
    imports: Dict[str, Dict[str, str]] = {
        name: _imports(module) for name, module in src.items()}
    packages = {name for name, module in src.items()
                if module.relpath.endswith("__init__.py")}
    defined = {name: _toplevel_names(src[name].tree) for name in packages}
    reached: Set[str] = set()

    def reach_module(name: str) -> None:
        parts = name.split(".")
        for depth in range(1, len(parts)):
            reached.add(".".join(parts[:depth]))   # parent __init__s
        if name in reached:
            return
        reached.add(name)
        if name not in packages:
            for origin in imports[name].values():
                reach(origin)

    def reach(origin: str) -> None:
        if origin in src:
            reach_module(origin)
            return
        package, _, attr = origin.rpartition(".")
        if package not in src:
            return  # stdlib, third party, or a root's own sibling
        reach_module(package)
        if package in packages and attr not in defined[package]:
            forwarded = imports[package].get(attr)
            if forwarded is not None:
                reach(forwarded)

    for name in ROOT_MODULES:
        reach_module(name)
    for directory in ROOT_DIRS:
        for path in collect_files([REPO_ROOT / directory]):
            for origin in _imports(_load(path)).values():
                reach(origin)
    return reached


SRC_MODULES = [module_name(path.relative_to(REPO_ROOT).as_posix())
               for path in collect_files([REPO_ROOT / "src" / "repro"])]


@pytest.fixture(scope="module")
def reached() -> Set[str]:
    return reached_modules()


@pytest.mark.parametrize("name", SRC_MODULES)
def test_module_is_reached_from_a_root(name, reached):
    assert name in reached, (
        f"{name} is imported by no command, example, bench workload "
        f"or lint rule; only tests/ use it")
