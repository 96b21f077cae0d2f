"""Scenario execution: spec -> sharded trials -> canonical artifact.

One :class:`~repro.scenarios.spec.ScenarioSpec` runs as a seeded
Monte Carlo through the chaos experiment's one trial worker
(:func:`~repro.experiments.chaos_availability.run_seeded_trials`):
the parent derives trial ``k``'s seed with
:func:`~repro.runtime.parallel.seed_for` from the spec's base seed
before dispatch, so the derivation cannot depend on the execution
medium.  Each trial carries its own
:class:`~repro.obs.metrics.MetricsRegistry`; the parent projects each
run onto its artifact payload and merges the per-trial snapshots
**in trial order** with
:func:`~repro.obs.metrics.merge_snapshots` and evaluates the SLO
budget over across-trial aggregates.  The resulting artifact is
canonical sorted JSON with no trace of the execution medium -- the
byte-for-byte golden contract the catalog CI replays at 1 and 2
workers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..experiments.chaos_availability import (
    ChaosAvailabilityResult,
    build_schedule,
    run_seeded_trials,
)
from ..obs import merge_snapshots
from ..orbits.constellation import by_name
from ..runtime.parallel import seed_for
from .slo import SLOReport, evaluate_slos, percentile
from .spec import ScenarioSpec

__all__ = [
    "ScenarioResult",
    "build_schedule",
    "run_scenario",
]


# ---------------------------------------------------------------------------
# Trial payloads
# ---------------------------------------------------------------------------

def _fault_digest(fault_keys: List[Tuple]) -> str:
    """SHA-256 of the canonical fault log -- pins the event sequence
    without shipping hundreds of raw tuples in every artifact."""
    canonical = json.dumps([list(key) for key in fault_keys],
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _scenario_trial(trial: int, result: ChaosAvailabilityResult) -> Dict:
    """Trial ``trial``'s artifact payload, projected from its run."""
    fault_kinds: Dict[str, int] = {}
    for key in result.fault_log:
        kind = key[1]
        fault_kinds[kind] = fault_kinds.get(kind, 0) + 1
    # Outcome keys: (procedure, supi, started_at, attempts,
    #                total_delay_s, completed, abandoned).
    recovery_attempts = [key[3] for key in result.spacecore_outcomes
                         if key[0] == "recovery" and key[5]]

    payload = {
        "trial": trial,
        "seed": result.scenario.seed,
        "final_survival": {
            "spacecore": result.final_spacecore_survival,
            "baseline": result.final_baseline_survival,
        },
        "lost_sessions": {
            "spacecore": result.spacecore_lost,
            "baseline": result.baseline_lost,
        },
        "n_sessions": result.n_sessions,
        "recovery_latency_s": {
            "spacecore": [round(v, 9)
                          for v in result.spacecore_recovery_latencies],
            "baseline": [round(v, 9)
                         for v in result.baseline_recovery_latencies],
        },
        "recovery_attempts": recovery_attempts,
        "faults": {
            "total": len(result.fault_log),
            "by_kind": fault_kinds,
            "digest": _fault_digest(result.fault_log),
        },
        "snapshot": result.metrics_snapshot,
    }
    # Conditional so probe-free scenarios (every committed golden)
    # keep their artifact bytes.
    if result.packet_probe is not None:
        payload["packet_probe"] = result.packet_probe
    return payload


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, artifact-ready."""

    spec: ScenarioSpec
    trials: List[Dict] = field(default_factory=list)

    @property
    def merged_snapshot(self) -> Dict:
        """Per-trial metrics folded in trial order (worker-count free)."""
        return merge_snapshots([t["snapshot"] for t in self.trials])

    def summary(self) -> Dict:
        """Across-trial aggregates the SLO layer budgets."""
        survivals = [t["final_survival"]["spacecore"] for t in self.trials]
        baselines = [t["final_survival"]["baseline"] for t in self.trials]
        latencies = [v for t in self.trials
                     for v in t["recovery_latency_s"]["spacecore"]]
        attempts = [a for t in self.trials for a in t["recovery_attempts"]]
        n = len(self.trials)
        return {
            "n_trials": n,
            "spacecore_mean_survival": (sum(survivals) / n if n else 0.0),
            "spacecore_min_survival": min(survivals) if survivals else 0.0,
            "baseline_mean_survival": (sum(baselines) / n if n else 0.0),
            "survival_margin": ((sum(survivals) - sum(baselines)) / n
                                if n else 0.0),
            "min_trial_margin": (min(s - b for s, b
                                     in zip(survivals, baselines))
                                 if n else 0.0),
            "spacecore_p99_recovery_s": round(percentile(latencies, 99.0),
                                              9),
            "spacecore_recoveries": len(latencies),
            "spacecore_mean_attempts": (sum(attempts) / len(attempts)
                                        if attempts else 0.0),
            "spacecore_lost": sum(t["lost_sessions"]["spacecore"]
                                  for t in self.trials),
            "baseline_lost": sum(t["lost_sessions"]["baseline"]
                                 for t in self.trials),
            "faults_injected": sum(t["faults"]["total"]
                                   for t in self.trials),
        }

    def slo_report(self) -> SLOReport:
        """Judge the run's summary against the spec's SLO budget."""
        return evaluate_slos(self.spec.slo, self.summary())

    def artifact(self) -> Dict:
        """The golden payload: spec echo, aggregates, verdicts, trials."""
        return {
            "scenario": self.spec.describe(),
            "summary": self.summary(),
            "slo_report": self.slo_report().to_json(),
            "merged_snapshot": self.merged_snapshot,
            "trials": self.trials,
        }

    def artifact_json(self) -> str:
        """Canonical bytes: sorted keys, two-space indent, newline EOF."""
        return json.dumps(self.artifact(), indent=2, sort_keys=True) + "\n"


def run_scenario(spec: ScenarioSpec,
                 workers: Optional[int] = None) -> ScenarioResult:
    """Execute one catalog scenario: seeded trials, sharded, merged.

    The trial list is assembled by trial index whatever the worker
    count, so ``run_scenario(spec, 1)`` and ``run_scenario(spec, 8)``
    produce byte-identical artifacts.
    """
    scenarios = [spec.chaos_scenario(seed_for(
        spec.base_seed, f"scenario:{spec.name}:trial:{trial}"))
        for trial in range(spec.n_trials)]
    results = run_seeded_trials(scenarios, by_name(spec.constellation),
                                workers=workers,
                                label=f"scenario.{spec.name}")
    return ScenarioResult(spec=spec, trials=[
        _scenario_trial(trial, result)
        for trial, result in enumerate(results)])
