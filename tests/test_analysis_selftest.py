"""The analyzer self-test: ``src/repro`` must lint clean, in tier-1.

A change that adds a per-UE table to a SpaceCore NF, an
implicit-Optional hint or an unexplained waiver fails `pytest`
directly -- the check cannot be skipped by not running the lint CLI.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def package_result():
    """One analyzer run over src/repro, shared by this module."""
    return analyze([REPO_ROOT / "src" / "repro"])


def _render(findings):
    return "\n".join(f"{f.path}:{f.line}: [{f.rule}] {f.message}"
                     for f in findings)


def test_package_has_zero_findings(package_result):
    """Every finding over src/repro is fixed or suppressed inline with
    a justification next to the code it excuses; there is no baseline
    to park one in."""
    assert not package_result.findings, _render(package_result.findings)


def test_analyzer_covers_the_whole_package(package_result):
    checked = set(package_result.files)
    assert "src/repro/core/spacecore.py" in checked
    assert "src/repro/runtime/parallel.py" in checked
    assert "src/repro/sim/engine.py" in checked
    assert len(checked) > 100


def test_examples_lint_clean():
    """The executable entry points around the package ride the same
    contracts: examples must be free of findings too (they define
    workloads whose artifacts the golden gate compares)."""
    result = analyze([REPO_ROOT / "examples"])
    assert result.files
    assert not result.findings, _render(result.findings)


def test_suite_itself_lints_clean():
    """The test suite is analyzed too (fixtures excluded -- they are
    the known-bad corpus)."""
    result = analyze([REPO_ROOT / "tests"])
    assert len(result.files) >= 50
    assert not result.findings, _render(result.findings)


def test_inline_suppressions_are_counted_not_hidden(package_result):
    """The two justified ephemeral-state tables stay visible as
    suppressions in the result (reviewers can audit the count)."""
    assert package_result.suppressed == 2
