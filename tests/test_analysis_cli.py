"""``repro lint`` CLI contract: exit codes and JSON schema.

Everything here drives the real argparse entry point
(``repro.cli.main``) the way CI does, against small temporary trees,
so the exit-code contract (0 clean / 1 findings / 2 usage) and the
``--format json`` schema are pinned.
"""

import json

import pytest

from repro.cli import main

CLEAN_SOURCE = '''\
from typing import Optional


def fine(count: Optional[int] = None) -> int:
    return count or 0
'''

BAD_SOURCE = '''\
def truncated(count: int = None):
    return count
'''


@pytest.fixture
def tree(tmp_path):
    """A throwaway project root (pyproject marks the root)."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    return tmp_path


def write(tree, name, source):
    path = tree / name
    path.write_text(source)
    return path


def run_lint(capsys, *argv):
    code = main(["lint", *argv])
    return code, capsys.readouterr().out


class TestExitCodes:
    def test_clean_file_exits_zero(self, tree, capsys):
        path = write(tree, "clean.py", CLEAN_SOURCE)
        code, out = run_lint(capsys, str(path))
        assert code == 0
        assert "0 finding(s)" in out

    def test_findings_exit_nonzero(self, tree, capsys):
        path = write(tree, "bad.py", BAD_SOURCE)
        code, out = run_lint(capsys, str(path))
        assert code == 1
        assert "[implicit-optional]" in out

    def test_unknown_rule_exits_two(self, tree, capsys):
        path = write(tree, "clean.py", CLEAN_SOURCE)
        code, out = run_lint(capsys, str(path),
                             "--rules", "no-such-rule")
        assert code == 2
        assert "unknown rule ids" in out

    def test_rule_filter_limits_what_runs(self, tree, capsys):
        path = write(tree, "bad.py", BAD_SOURCE)
        code, _ = run_lint(capsys, str(path),
                           "--rules", "unseeded-rng")
        assert code == 0

    def test_list_rules(self, tree, capsys):
        code, out = run_lint(capsys, "--list-rules")
        assert code == 0
        assert "stateful-nf" in out
        assert "hash-seed" in out


class TestJsonFormat:
    def test_schema(self, tree, capsys):
        path = write(tree, "bad.py", BAD_SOURCE)
        code, out = run_lint(capsys, str(path), "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["version"] == 3
        assert report["files_checked"] == 1
        assert set(report) == {"version", "root", "files_checked",
                               "rules", "findings", "summary"}
        assert report["summary"] == {"total": 1, "suppressed": 0}
        (finding,) = report["findings"]
        assert set(finding) == {"rule", "path", "line", "message",
                                "severity"}
        assert finding["rule"] == "implicit-optional"
        assert finding["path"] == "bad.py"
        assert finding["line"] == 1
        assert finding["severity"] == "error"

    def test_output_file(self, tree, capsys):
        path = write(tree, "bad.py", BAD_SOURCE)
        report_path = tree / "lint.json"
        code, _ = run_lint(capsys, str(path), "--format", "json",
                           "--output", str(report_path))
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["summary"]["total"] == 1


class TestDefaultTarget:
    def test_bare_lint_analyzes_the_package(self, capsys):
        """``repro lint`` with no paths gates the real source tree --
        and it is clean (the CI invocation)."""
        code, out = run_lint(capsys)
        assert code == 0, out
        assert "0 finding(s)" in out
