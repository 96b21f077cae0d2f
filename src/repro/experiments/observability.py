"""Instrumented experiment runs: metrics snapshots and sim-time traces.

The chaos-churn Monte Carlo records its own per-trial metrics and
spans (:func:`~.chaos_availability.run_chaos_trials`); the
population-scale cohort sweep runs here with a per-shard
:class:`~repro.obs.metrics.MetricsRegistry`.  Either way the per-shard
snapshots fold with :func:`~repro.obs.metrics.merge_snapshots` **in
shard-index order** -- the same order whether the shards ran serially
or across a process pool -- so the merged artifact is bit-identical
for any worker count.

Nothing about the execution medium (worker count, wall time, host)
appears in any payload; every timestamp is simulated time.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from ..baselines import solution_by_name
from ..obs import MetricsRegistry, merge_snapshots
from ..orbits.constellation import Constellation
from ..runtime.cohort import UECohortEngine
from ..runtime.parallel import get_shared, run_sharded, seed_for
from .chaos_availability import ChaosScenario, run_chaos_trials

__all__ = [
    "chaos_observability",
    "cohort_observability",
    "write_metrics_snapshot",
    "write_trace_jsonl",
]


# ---------------------------------------------------------------------------
# Chaos Monte Carlo, instrumented
# ---------------------------------------------------------------------------

def chaos_observability(n_trials: int = 1, base_seed: int = 0,
                        scenario: Optional[ChaosScenario] = None,
                        constellation: Optional[Constellation] = None,
                        workers: Optional[int] = None) -> Dict:
    """Instrumented chaos Monte Carlo: merged metrics + full trace.

    A projection of :func:`run_chaos_trials` (trial ``k`` is seeded
    ``seed_for(base_seed, "chaos-trial:k")`` and records into its own
    registry and tracer): snapshots merge in trial order and traces
    concatenate in trial order, each span tagged with its trial, so
    the payload is bit-identical for any ``workers`` value.
    """
    mc = run_chaos_trials(n_trials=n_trials, base_seed=base_seed,
                          scenario=scenario, constellation=constellation,
                          workers=workers)
    return {
        "experiment": "chaos",
        "base_seed": base_seed,
        "n_trials": n_trials,
        "snapshot": merge_snapshots([r.metrics_snapshot
                                     for r in mc.results]),
        "per_trial": [{"trial": trial, "snapshot": r.metrics_snapshot}
                      for trial, r in enumerate(mc.results)],
        "trace": [{**span, "attrs": {**span["attrs"], "trial": trial}}
                  for trial, r in enumerate(mc.results)
                  for span in r.spans],
    }


# ---------------------------------------------------------------------------
# Cohort-engine sweep, instrumented
# ---------------------------------------------------------------------------

def _observed_cohort_point(work) -> Dict:
    """One instrumented cohort design point (module-level: must pickle)."""
    index, solution_name, n_ues, duration_s, base_seed, n_cohorts = work
    del index  # kept in the work tuple for stable ordering/debugging
    constellation = get_shared("cohort:constellation")
    metrics = MetricsRegistry()
    engine = UECohortEngine(
        constellation, n_ues=n_ues,
        solution=solution_by_name(solution_name),
        seed=seed_for(base_seed, f"cohort-point:{solution_name}"),
        n_cohorts=n_cohorts, metrics=metrics)
    stats = engine.run(duration_s)
    return {
        "solution": solution_name,
        "snapshot": metrics.snapshot(),
        "events_total": stats.events_total,
        "signaling_messages": stats.signaling_messages,
    }


def cohort_observability(solutions: Optional[Sequence[str]] = None,
                         constellation: Optional[Constellation] = None,
                         n_ues: int = 20_000, duration_s: float = 600.0,
                         base_seed: int = 0, n_cohorts: int = 32,
                         workers: Optional[int] = None) -> Dict:
    """Instrumented cohort sweep: one design point per solution.

    Each point runs on its own registry with a seed derived from the
    solution name (not the shard slot), so the merged snapshot is
    independent of worker count and of the order solutions are listed
    relative to pool scheduling.
    """
    if constellation is None:
        from ..orbits.constellation import starlink
        constellation = starlink()
    if solutions is None:
        from ..baselines import ALL_SOLUTIONS
        solutions = [factory().name for factory in ALL_SOLUTIONS]
    work = [(index, name, n_ues, duration_s, base_seed, n_cohorts)
            for index, name in enumerate(solutions)]
    shards = run_sharded(_observed_cohort_point, work, workers=workers,
                         shared={"cohort:constellation": constellation},
                         label="obs.cohort")
    return {
        "experiment": "cohort",
        "base_seed": base_seed,
        "n_ues": n_ues,
        "duration_s": duration_s,
        "snapshot": merge_snapshots([s["snapshot"] for s in shards]),
        "per_point": shards,
    }


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def write_metrics_snapshot(path: str, payload: Dict) -> None:
    """Write the snapshot artifact, sans trace, with sorted keys.

    The trace rides in the payload for convenience but belongs in the
    JSONL artifact (:func:`write_trace_jsonl`); stripping it here
    keeps the snapshot small and diffable -- CI compares the
    ``--workers 1`` and ``--workers 2`` files byte-for-byte.
    """
    slim = {key: value for key, value in payload.items()
            if key != "trace"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(slim, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trace_jsonl(path: str, payload: Dict) -> int:
    """Write the trace as one sorted-key JSON object per line."""
    spans = payload.get("trace", [])
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
    return len(spans)
