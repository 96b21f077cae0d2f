"""Gated third-party tooling checks: ruff and the mypy typed core.

Neither tool is a runtime dependency, so these tests *skip* when the
tool is absent (the default local environment) and run in the CI
``static-analysis`` job, which installs both.  The invocations here
are exactly the CI ones -- keeping them in pytest means a contributor
with the tools installed gets the gate locally for free.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The mypy ratchet: files that must type-check today.  Grow this
#: list as modules are brought up to the bar; never shrink it.
TYPED_CORE = [
    "src/repro/analysis",
    "src/repro/obs",
    "src/repro/runtime",
    "src/repro/scenarios",
    "src/repro/sim/engine.py",
    "src/repro/orbits/snapshot.py",
    "tests/test_paper_claims.py",
]


def _tool_missing(module: str) -> bool:
    return importlib.util.find_spec(module) is None


def _run(argv):
    return subprocess.run(
        [sys.executable, "-m", *argv], cwd=REPO_ROOT,
        capture_output=True, text=True)


@pytest.mark.skipif(_tool_missing("ruff"),
                    reason="ruff not installed (runs in CI)")
def test_ruff_clean():
    """``ruff check`` over the whole tree, config from pyproject."""
    proc = _run(["ruff", "check", "src", "tests"])
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(_tool_missing("mypy"),
                    reason="mypy not installed (runs in CI)")
def test_mypy_typed_core():
    """mypy over the ratcheted file set, config from pyproject."""
    proc = _run(["mypy", *TYPED_CORE])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_py_typed_marker_ships():
    """PEP 561: the package advertises inline types to consumers."""
    assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()
    try:
        import tomllib  # 3.11+
    except ImportError:
        return
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert config["tool"]["setuptools"]["package-data"]["repro"] == [
        "py.typed"]


def test_typed_core_paths_exist():
    """The ratchet list cannot rot: every entry must exist."""
    for entry in TYPED_CORE:
        assert (REPO_ROOT / entry).exists(), entry
