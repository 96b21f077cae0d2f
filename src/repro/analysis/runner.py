"""Analyzer driver: collect files, run rules, gate on any finding.

``analyze`` is the library entry point (the self-test calls it
directly); ``lint_main`` is the ``repro lint`` subcommand.  The root
against which paths are reported is found by walking up from the
first analyzed path to the directory holding ``pyproject.toml`` (or
``.git``), so reported paths and rule scopes are stable no matter
where the command is invoked from.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .core import Finding, ModuleInfo, ProjectContext, Rule
from .registry import get_rules
from .reporting import build_report, render_json, render_text

#: Rule id reserved for files the analyzer cannot parse.
PARSE_ERROR_RULE = "parse-error"


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    root: Path
    files: List[str] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0

    @property
    def files_checked(self) -> int:
        return len(self.files)


def find_project_root(start: Path) -> Path:
    """Nearest ancestor with pyproject.toml or .git, else ``start``."""
    start = start.resolve()
    candidates = [start] if start.is_dir() else [start.parent]
    for ancestor in [candidates[0]] + list(candidates[0].parents):
        if (ancestor / "pyproject.toml").exists() \
                or (ancestor / ".git").exists():
            return ancestor
    return candidates[0]


def default_target() -> Tuple[List[Path], Path]:
    """The package's own source tree and its repo root.

    Used when ``repro lint`` is invoked with no paths: analyze the
    installed ``repro`` package sources, rooted at the repo checkout.
    """
    package_dir = Path(__file__).resolve().parents[1]
    return [package_dir], find_project_root(package_dir)


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for path in paths:
        path = path.resolve()
        if path.is_dir():
            files.extend(p for p in path.rglob("*.py")
                         if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or dir: {path}")
    return sorted(set(files))


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def load_module(path: Path, root: Path) -> Tuple[Optional[ModuleInfo],
                                                 Optional[Finding]]:
    """Parse one file; on syntax errors return a parse-error finding."""
    relpath = _relpath(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return None, Finding(
            rule=PARSE_ERROR_RULE, path=relpath,
            line=error.lineno or 0,
            message=f"cannot parse: {error.msg}")
    return ModuleInfo(path, relpath, source, tree), None


def analyze(paths: Sequence[Path], root: Optional[Path] = None,
            rules: Optional[Sequence[Rule]] = None) -> AnalysisResult:
    """Run the rule set over the given files/directories."""
    if root is None:
        root = find_project_root(Path(paths[0]))
    root = root.resolve()
    if rules is None:
        rules = get_rules()
    result = AnalysisResult(root=root)
    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    for path in collect_files(paths):
        module, parse_error = load_module(path, root)
        if parse_error is not None:
            result.files.append(parse_error.path)
            findings.append(parse_error)
            continue
        assert module is not None
        result.files.append(module.relpath)
        modules.append(module)
    project = ProjectContext(root, modules)
    for module in modules:
        for rule in rules:
            if not rule.applies_to(module.relpath):
                continue
            for finding in rule.check(module, project):
                finding.severity = rule.severity
                if rule.suppressible and module.is_suppressed(
                        finding.line, finding.rule):
                    result.suppressed += 1
                else:
                    findings.append(finding)
    result.findings = sorted(findings, key=Finding.sort_key)
    return result


# ---------------------------------------------------------------------------
# The ``repro lint`` subcommand
# ---------------------------------------------------------------------------

def lint_main(paths: Sequence[str], *,
              format: str = "text",
              output: Optional[str] = None,
              rule_ids: Optional[Sequence[str]] = None,
              list_rules: bool = False) -> int:
    """Everything behind ``repro lint``; returns the exit code."""
    if list_rules:
        for rule in get_rules():
            scope = ", ".join(rule.scope) if rule.scope else "all files"
            print(f"{rule.id:22s} [{rule.family}] ({scope})")
            print(f"{'':22s} {rule.description}")
        return 0

    try:
        rules = get_rules(rule_ids)
    except KeyError as error:
        print(error.args[0])
        return 2

    if paths:
        targets = [Path(p) for p in paths]
        root = find_project_root(targets[0])
    else:
        targets, root = default_target()

    result = analyze(targets, root=root, rules=rules)
    report = build_report(
        root=str(result.root), files_checked=result.files_checked,
        rule_ids=[rule.id for rule in rules], findings=result.findings,
        suppressed=result.suppressed)
    rendered = render_json(report) if format == "json" \
        else render_text(report)
    if output:
        Path(output).write_text(rendered)
        print(f"wrote {output}")
    else:
        print(rendered, end="")
    return 1 if result.findings else 0
