"""Analyzer driver: collect files, run rules, gate on any finding.

``analyze`` is the library entry point (the self-test calls it
directly); ``lint_main`` is the ``repro lint`` subcommand, which prints
one ``path:line: [rule] message`` per finding and exits 1 on any.  The
root against which paths are reported is found by walking up from the
first analyzed path to the directory holding ``pyproject.toml`` (or
``.git``), so reported paths and rule scopes are stable no matter
where the command is invoked from.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .core import Finding, ModuleInfo
from .registry import all_rules

#: Rule id reserved for files the analyzer cannot parse.
PARSE_ERROR_RULE = "parse-error"


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    root: Path
    files: List[str] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0


def find_project_root(start: Path) -> Path:
    """Nearest ancestor with pyproject.toml or .git, else ``start``."""
    start = start.resolve()
    first = start if start.is_dir() else start.parent
    for ancestor in [first] + list(first.parents):
        if (ancestor / "pyproject.toml").exists() \
                or (ancestor / ".git").exists():
            return ancestor
    return first


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    A ``fixtures`` directory below a given directory holds known-bad
    lint corpus (``tests/fixtures/lint``) and is skipped; name it, or
    a directory inside it, to analyze it.
    """
    files: List[Path] = []
    for path in paths:
        path = path.resolve()
        if path.is_dir():
            files.extend(p for p in path.rglob("*.py")
                         if not {"__pycache__", "fixtures"}
                         & set(p.relative_to(path).parts))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or dir: {path}")
    return sorted(set(files))


def load_module(path: Path, root: Path) -> Tuple[Optional[ModuleInfo],
                                                 Optional[Finding]]:
    """Parse one file; on syntax errors return a parse-error finding."""
    try:
        relpath = path.resolve().relative_to(root).as_posix()
    except ValueError:
        relpath = path.resolve().as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return None, Finding(rule=PARSE_ERROR_RULE, path=relpath,
                             line=error.lineno or 0,
                             message=f"cannot parse: {error.msg}")
    return ModuleInfo(relpath, source, tree), None


def analyze(paths: Sequence[Path]) -> AnalysisResult:
    """Run every registered rule over the given files/directories,
    reporting paths relative to the first path's project root."""
    root = find_project_root(Path(paths[0]))
    rules = all_rules()
    result = AnalysisResult(root=root)
    for path in collect_files(paths):
        module, parse_error = load_module(path, root)
        if module is None:
            assert parse_error is not None
            result.files.append(parse_error.path)
            result.findings.append(parse_error)
            continue
        result.files.append(module.relpath)
        for rule in rules:
            if not rule.applies_to(module.relpath):
                continue
            for finding in rule.check(module):
                if rule.suppressible and module.is_suppressed(
                        finding.line, finding.rule):
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
    result.findings.sort(key=Finding.sort_key)
    return result


def lint_main(paths: Sequence[str]) -> int:
    """Everything behind ``repro lint``; returns the exit code.

    No paths means the installed ``repro`` package, rooted at its
    checkout.  The rule catalogue is DESIGN.md's.
    """
    package_dir = Path(__file__).resolve().parents[1]
    targets = [Path(p) for p in paths] or [package_dir]
    result = analyze(targets)
    for f in result.findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    print(f"{len(result.files)} files checked: "
          f"{len(result.findings)} finding(s), "
          f"{result.suppressed} suppressed inline")
    return 1 if result.findings else 0
