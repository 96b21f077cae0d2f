"""``repro lint`` CLI contract: exit codes and the report lines.

Everything here drives the real argparse entry point
(``repro.cli.main``) the way CI does, against small temporary trees,
so the exit-code contract (0 clean / 1 findings) is pinned.
"""

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
        assert "bad.py:1: [implicit-optional] truncated() parameter " \
            "count: int defaults to None" in out
        assert "1 files checked: 1 finding(s)" in out


class TestDefaultTarget:
    def test_bare_lint_analyzes_the_package(self, capsys):
        """``repro lint`` with no paths gates the real source tree --
        and it is clean (the CI invocation)."""
        code, out = run_lint(capsys)
        assert code == 0, out
        assert "0 finding(s)" in out
