"""SLO budgets and verdicts for scenario runs.

A :class:`SLOBudget` states what a scenario is *allowed* to cost in
availability terms; :func:`evaluate_slos` holds a run summary to that
budget and returns a :class:`SLOReport` with one verdict per check and
an overall worst-of verdict:

* ``pass`` -- the check clears its threshold with headroom;
* ``degraded`` -- the check clears the threshold but sits inside the
  ``degraded_margin`` band (including *exactly at* the threshold): the
  scenario still meets its SLO, with no headroom left -- the early-
  warning state CI surfaces without failing the build;
* ``fail`` -- the threshold is violated.

Checks come in two shapes: **floors** (observed must be >= threshold:
availability, the SpaceCore-vs-stateful survival margin) and
**ceilings** (observed must be <= threshold: p99 recovery latency,
retries per recovery, lost sessions).  All inputs are simulated-time
aggregates, so verdicts are bit-reproducible along with the artifacts
they ride in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

PASS = "pass"
DEGRADED = "degraded"
FAIL = "fail"

_SEVERITY = {PASS: 0, DEGRADED: 1, FAIL: 2}


@dataclass(frozen=True)
class SLOBudget:
    """What one scenario is allowed to cost.

    ``None`` disables a check.  ``degraded_margin`` is the relative
    width of the no-headroom band around each threshold (absolute for
    thresholds at zero).
    """

    #: Floor on SpaceCore mean final session survival across trials.
    availability_floor: Optional[float] = 0.9
    #: Ceiling on the pooled p99 SpaceCore recovery latency (seconds).
    p99_latency_ceiling_s: Optional[float] = 60.0
    #: Ceiling on mean NAS attempts per completed SpaceCore recovery.
    retry_budget_attempts: Optional[float] = 2.0
    #: Ceiling on total SpaceCore sessions lost across all trials.
    max_lost_sessions: Optional[int] = 0
    #: Floor on mean (SpaceCore - stateful baseline) final survival:
    #: the paper's availability gap, required to stay non-negative.
    survival_margin_floor: Optional[float] = 0.0
    #: Relative headroom band; within it a passing check is "degraded".
    degraded_margin: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.degraded_margin < 1.0:
            raise ValueError("degraded margin must be in [0, 1)")

    def describe(self) -> Dict:
        """JSON-ready view of every budget knob (for the artifact)."""
        return {
            "availability_floor": self.availability_floor,
            "p99_latency_ceiling_s": self.p99_latency_ceiling_s,
            "retry_budget_attempts": self.retry_budget_attempts,
            "max_lost_sessions": self.max_lost_sessions,
            "survival_margin_floor": self.survival_margin_floor,
            "degraded_margin": self.degraded_margin,
        }


@dataclass(frozen=True)
class SLOCheck:
    """One budget line held against one observed aggregate."""

    name: str
    kind: str              # "floor" | "ceiling"
    threshold: float
    observed: float
    verdict: str

    def to_json(self) -> Dict:
        """JSON-ready record: name, kind, threshold, observed, verdict."""
        return {
            "name": self.name,
            "kind": self.kind,
            "threshold": self.threshold,
            "observed": self.observed,
            "verdict": self.verdict,
        }


@dataclass
class SLOReport:
    """All checks of one scenario run, plus the worst-of verdict."""

    checks: List[SLOCheck] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if not self.checks:
            return PASS
        return max((c.verdict for c in self.checks),
                   key=lambda v: _SEVERITY[v])

    def to_json(self) -> Dict:
        """JSON-ready report: overall verdict plus every check."""
        return {
            "verdict": self.verdict,
            "checks": [c.to_json() for c in self.checks],
        }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    Empty input yields 0.0: a run with no recovery samples has no
    latency to budget.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _band(threshold: float, margin: float) -> float:
    """Absolute width of the degraded band around one threshold."""
    return margin * (abs(threshold) if threshold != 0.0 else 1.0)


def _floor_check(name: str, threshold: Optional[float], observed: float,
                 margin: float) -> Optional[SLOCheck]:
    if threshold is None:
        return None
    if observed < threshold:
        verdict = FAIL
    elif observed <= threshold + _band(threshold, margin):
        verdict = DEGRADED
    else:
        verdict = PASS
    return SLOCheck(name, "floor", float(threshold), float(observed),
                    verdict)


def _ceiling_check(name: str, threshold: Optional[float], observed: float,
                   margin: float) -> Optional[SLOCheck]:
    if threshold is None:
        return None
    if observed > threshold:
        verdict = FAIL
    elif observed >= threshold - _band(threshold, margin):
        verdict = DEGRADED
    else:
        verdict = PASS
    return SLOCheck(name, "ceiling", float(threshold), float(observed),
                    verdict)


def evaluate_slos(budget: SLOBudget, summary: Mapping) -> SLOReport:
    """Hold one scenario-run summary to its budget.

    ``summary`` is the engine's across-trial aggregate (see
    :meth:`~repro.scenarios.engine.ScenarioResult.summary`); missing
    keys read as their natural zero, so an empty snapshot evaluates
    instead of crashing -- and fails the availability floor, which is
    the right answer for "the scenario produced nothing".
    """
    margin = budget.degraded_margin
    checks = [
        _floor_check("availability", budget.availability_floor,
                     float(summary.get("spacecore_mean_survival", 0.0)),
                     margin),
        _ceiling_check("p99_recovery_latency_s",
                       budget.p99_latency_ceiling_s,
                       float(summary.get("spacecore_p99_recovery_s", 0.0)),
                       margin),
        _ceiling_check("retries_per_recovery",
                       budget.retry_budget_attempts,
                       float(summary.get("spacecore_mean_attempts", 0.0)),
                       margin),
        _ceiling_check("lost_sessions",
                       (None if budget.max_lost_sessions is None
                        else float(budget.max_lost_sessions)),
                       float(summary.get("spacecore_lost", 0)),
                       margin),
        _floor_check("survival_margin", budget.survival_margin_floor,
                     float(summary.get("survival_margin", 0.0)),
                     margin),
    ]
    return SLOReport([c for c in checks if c is not None])
