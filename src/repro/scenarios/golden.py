"""Golden-artifact plumbing: write, check, and diff catalog runs.

Each catalog scenario commits its canonical artifact (sorted JSON,
trailing newline) under ``artifacts/scenarios/<name>.json``.  A check
re-runs the scenario and compares **bytes**: any drift -- a changed
fault log, a shifted latency, a new metric series -- fails loudly with
a unified diff, exactly like a golden-file test.  Because artifacts
contain nothing about the execution medium, the same check passing at
``REPRO_WORKERS=1`` and ``2`` certifies the sharded runtime's
bit-reproducibility contract end to end.  ``repro report --check``
holds the report to ``artifacts/report.md`` the same way.

``REPRO_SCENARIO_GOLDEN_DIR`` points checks at an alternate directory
(tests use a tmpdir; CI uses the committed tree).
"""

from __future__ import annotations

import difflib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .engine import ScenarioResult, run_scenario
from .slo import FAIL
from .spec import ScenarioSpec

#: Environment override for the golden-artifact directory.
GOLDEN_DIR_ENV = "REPRO_SCENARIO_GOLDEN_DIR"


#: The committed artifacts tree: scenario goldens and the pinned report.
ARTIFACTS_DIR = Path(__file__).resolve().parents[3] / "artifacts"


def golden_dir() -> Path:
    """Where golden artifacts live (env-overridable for tests)."""
    override = os.environ.get(GOLDEN_DIR_ENV)
    if override:
        return Path(override)
    return ARTIFACTS_DIR / "scenarios"


def report_golden_path() -> Path:
    """The pinned ``repro report`` output (``repro report --check``)."""
    return ARTIFACTS_DIR / "report.md"


def golden_path(name: str) -> Path:
    """Path of the committed golden artifact for scenario ``name``."""
    return golden_dir() / f"{name}.json"


def write_golden(result: ScenarioResult) -> Path:
    """(Re)commit one scenario's canonical artifact."""
    path = golden_path(result.spec.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(result.artifact_json(), encoding="utf-8")
    return path


def diff_lines(expected: str, actual: str, filename: str,
               limit: int = 40) -> List[str]:
    """A truncated unified diff of golden vs freshly-run artifact."""
    lines = list(difflib.unified_diff(
        expected.splitlines(), actual.splitlines(),
        fromfile=f"golden/{filename}", tofile=f"run/{filename}",
        lineterm=""))
    if len(lines) > limit:
        lines = lines[:limit] + [f"... ({len(lines) - limit} more lines)"]
    return lines


@dataclass
class CheckOutcome:
    """One scenario's check verdict: SLOs plus golden-byte drift."""

    name: str
    slo_verdict: str
    drift: bool
    missing_golden: bool = False
    diff: List[str] = field(default_factory=list)
    result: Optional[ScenarioResult] = None

    @property
    def ok(self) -> bool:
        """Check passes: SLOs not failing, golden present and byte-equal.

        A ``degraded`` SLO verdict still passes -- it is the early
        warning, not the gate.
        """
        return (not self.drift and not self.missing_golden
                and self.slo_verdict != FAIL)


def check_scenario(spec: ScenarioSpec,
                   workers: Optional[int] = None) -> CheckOutcome:
    """Re-run one scenario and hold it to its golden bytes + SLOs
    (``repro scenario check``; ``repro scenario run --update`` rewrites
    a golden through :func:`write_golden`)."""
    result = run_scenario(spec, workers=workers)
    actual = result.artifact_json()
    verdict = result.slo_report().verdict
    path = golden_path(spec.name)
    if not path.exists():
        return CheckOutcome(spec.name, verdict, drift=True,
                            missing_golden=True, result=result)
    expected = path.read_text(encoding="utf-8")
    if expected == actual:
        return CheckOutcome(spec.name, verdict, drift=False, result=result)
    return CheckOutcome(spec.name, verdict, drift=True,
                        diff=diff_lines(expected, actual,
                                        f"{spec.name}.json"),
                        result=result)
