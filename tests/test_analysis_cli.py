"""``repro lint`` CLI contract: exit codes, JSON schema, baselines.

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
        assert "0 new finding(s)" in out

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
        assert report["version"] == 2
        assert report["files_checked"] == 1
        assert set(report["summary"]) == {
            "total", "new", "baselined", "suppressed",
            "stale_baseline"}
        (finding,) = report["findings"]
        assert set(finding) == {"rule", "path", "line", "message",
                                "fingerprint", "baselined", "severity"}
        assert finding["rule"] == "implicit-optional"
        assert finding["path"] == "bad.py"
        assert finding["line"] == 1
        assert finding["baselined"] is False
        assert finding["severity"] == "error"
        assert len(finding["fingerprint"]) == 16

    def test_output_file(self, tree, capsys):
        path = write(tree, "bad.py", BAD_SOURCE)
        report_path = tree / "lint.json"
        code, _ = run_lint(capsys, str(path), "--format", "json",
                           "--output", str(report_path))
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["summary"]["new"] == 1


class TestBaselineRoundTrip:
    def test_add_then_expire(self, tree, capsys):
        """The full ratchet: findings -> baselined -> fixed -> stale
        -> expired on rewrite."""
        path = write(tree, "bad.py", BAD_SOURCE)
        baseline = tree / "lint-baseline.json"

        # 1. New finding fails the gate.
        assert run_lint(capsys, str(path))[0] == 1

        # 2. Accept it into the baseline; the gate passes.
        code, out = run_lint(capsys, str(path), "--write-baseline")
        assert code == 0
        assert baseline.exists()
        entries = json.loads(baseline.read_text())["findings"]
        assert len(entries) == 1
        code, out = run_lint(capsys, str(path))
        assert code == 0
        assert "1 baselined" in out

        # 3. Fix the code: the entry goes stale (still exit 0).
        write(tree, "bad.py", CLEAN_SOURCE)
        code, out = run_lint(capsys, str(path))
        assert code == 0
        assert "stale baseline entry" in out

        # 4. Rewrite: the stale entry expires.
        assert run_lint(capsys, str(path), "--write-baseline")[0] == 0
        assert json.loads(baseline.read_text())["findings"] == []

    def test_baseline_notes_survive_rewrite(self, tree, capsys):
        path = write(tree, "bad.py", BAD_SOURCE)
        baseline = tree / "lint-baseline.json"
        run_lint(capsys, str(path), "--write-baseline")
        data = json.loads(baseline.read_text())
        data["findings"][0]["note"] = "accepted: justified fixture"
        baseline.write_text(json.dumps(data))
        run_lint(capsys, str(path), "--write-baseline")
        rewritten = json.loads(baseline.read_text())
        assert rewritten["findings"][0]["note"] == \
            "accepted: justified fixture"

    def test_no_baseline_flag_reports_everything(self, tree, capsys):
        path = write(tree, "bad.py", BAD_SOURCE)
        run_lint(capsys, str(path), "--write-baseline")
        code, _ = run_lint(capsys, str(path), "--no-baseline")
        assert code == 1

    def test_explicit_baseline_path(self, tree, capsys):
        path = write(tree, "bad.py", BAD_SOURCE)
        custom = tree / "custom-baseline.json"
        code, _ = run_lint(capsys, str(path), "--baseline",
                           str(custom), "--write-baseline")
        assert code == 0
        assert custom.exists()
        code, _ = run_lint(capsys, str(path), "--baseline", str(custom))
        assert code == 0


class TestDefaultTarget:
    def test_bare_lint_analyzes_the_package(self, capsys):
        """``repro lint`` with no paths gates the real source tree --
        and it is clean (the CI invocation)."""
        code, out = run_lint(capsys)
        assert code == 0, out
        assert "0 new finding(s)" in out
