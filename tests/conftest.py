"""Session-wide fixtures shared across test files."""

from pathlib import Path

import pytest

from repro.analysis import analyze

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def package_analysis():
    """One analyzer run over ``src/repro`` for the whole session.

    The lint self-test reads its findings; the call-graph tests read
    the call graph and effect summaries its project context builds.
    """
    return analyze([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
