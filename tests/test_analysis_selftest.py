"""The analyzer self-test: ``src/repro`` must lint clean, in tier-1.

This is the gate ISSUE 4 asks for: future PRs that reintroduce an
unseeded draw, a ``hash()``-derived seed, a per-UE table on a
SpaceCore NF, an unsound cache key, a frozen-snapshot mutation, or an
implicit-Optional hint fail `pytest` directly -- the check cannot be
skipped by not running the lint CLI.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze
from repro.runtime.memo import MEMO_DECORATOR_NAMES, cached_dwell_time_s

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def package_result():
    """One analyzer run over src/repro, shared by this module."""
    return analyze([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)


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
    result = analyze([REPO_ROOT / "examples"], root=REPO_ROOT)
    assert result.files_checked > 0
    assert not result.findings, _render(result.findings)


def test_suite_itself_lints_clean():
    """The test suite is analyzed too (fixtures excluded -- they are
    the known-bad corpus): a wall-clock read or unseeded draw smuggled
    into a test helper would skew goldens just as surely."""
    files = sorted((REPO_ROOT / "tests").glob("test_*.py"))
    result = analyze(files, root=REPO_ROOT)
    assert result.files_checked >= 50
    assert not result.findings, _render(result.findings)


def test_every_package_suppression_is_justified(package_result):
    """ISSUE 9 acceptance: new suppressions only land with a
    '-- why' trailer, enforced by bare-suppression staying quiet."""
    bare = [f for f in package_result.findings
            if f.rule == "bare-suppression"]
    assert bare == []


def test_inline_suppressions_are_counted_not_hidden(package_result):
    """The three justified ephemeral-state tables stay visible as
    suppressions in the result (reviewers can audit the count)."""
    assert package_result.suppressed >= 3


def test_memo_decorator_metadata_is_exposed():
    """runtime.memo exposes the decorator-name list the cache rules
    key on; its own memoizer is an ``lru_cache`` underneath."""
    assert "shard_memoized" in MEMO_DECORATOR_NAMES
    assert "lru_cache" in MEMO_DECORATOR_NAMES
    assert cached_dwell_time_s.cache_info().maxsize is None
