"""Cost-aware execution planning for the sharded runtime.

PR 3's ``run_sharded`` paid full pool startup per call and one pickled
task per shard, so small work units *lost* to serial (0.20x on the
80-point signaling sweep, 0.93x on the chaos Monte Carlo, measured
before this module existed).  TEGRA's
disaggregated-core argument and Serverless5GC's cold-start-vs-warm-pool
tradeoff teach the same lesson: parallelism is fictional unless startup
and dispatch overhead are amortized across many invocations.  This
module is the policy half of that amortization; the mechanism half
(warm pools, batch dispatch, the shared-object registry) lives in
:mod:`.parallel`.

The planner answers one question per fan-out: *given ``n`` items, ``w``
requested workers, and an estimated per-item cost, is sharding worth
it -- and at what batch size?*  Inputs to the decision:

* **Calibration** -- measured once per process on the first pool:
  per-task dispatch overhead (submit + pickle + round-trip of a no-op)
  and pool startup time.  Until a pool exists, conservative defaults
  stand in.
* **Cost priors** -- an EMA of measured per-item cost keyed by the
  fan-out's label, learned from earlier serial or sharded runs in this
  process.  A sweep that ran serially once plans its sharded run
  without probing; a label never seen before pays a one-item in-process
  probe instead.
* **Break-even projection** -- serial cost ``est * n`` versus
  ``startup + n_tasks * overhead + est * n / effective_workers``,
  where effective workers are capped by the host's usable cores.  A
  grid below break-even routes straight to the in-process path: the
  sharded runtime must never lose to serial by more than timer noise.

Decisions change the execution *medium* only, never an artifact: the
bit-identical serial/sharded contract of
``tests/test_parallel_equivalence.py`` holds whatever the planner
picks.  Every decision is recorded in an in-process log and mirrored
into a dedicated :class:`~repro.obs.metrics.MetricsRegistry` (separate
from experiment registries, which must stay independent of the
execution medium) so planner behaviour ships with the benchmark
artifacts.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from ..obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry, Snapshot

__all__ = [
    "PLANNER_ENV_VAR",
    "ExecutionPlan",
    "cost_prior",
    "forced_mode",
    "note_pool_recycled",
    "plan_execution",
    "planner_calibration",
    "planner_decisions",
    "planner_metrics_snapshot",
    "record_decision",
    "reset_planner",
    "trivial_plan",
    "update_cost_prior",
    "usable_cores",
]

#: Environment knob forcing the planner's hand: ``auto`` (default),
#: ``serial`` (never pool), or ``sharded`` (always pool when the
#: caller asked for >1 worker) -- the last is how the equivalence
#: tests guarantee the pool path actually executes.
PLANNER_ENV_VAR = "REPRO_PLANNER"

_FORCE_MODES = ("auto", "serial", "sharded")

#: Dispatch overhead assumed per pool task before calibration has run.
DEFAULT_TASK_OVERHEAD_S = 2e-3

#: Pool startup cost assumed before a pool has ever been created.
DEFAULT_POOL_STARTUP_S = 0.15

#: Every pool task should carry at least this much estimated work...
MIN_TASK_SPAN_S = 0.010

#: ...and at least this multiple of the measured per-task overhead,
#: whichever is larger -- the batching floor that keeps dispatch cost
#: a rounding error on the task it ships.
OVERHEAD_MULTIPLE = 10.0

#: Sharding must project at least this advantage over serial; below
#: it the projection is within noise of break-even and serial wins by
#: default (no pool to start, no pickling to pay).
PARALLEL_ADVANTAGE = 1.3

#: Without a cost estimate (forced sharded, label never measured),
#: split the grid into this many tasks per worker for load balance.
FORCED_TASKS_PER_WORKER = 4

#: Weight of the newest measurement in the per-label cost EMA.
PRIOR_EMA_ALPHA = 0.5


@dataclass(frozen=True)
class ExecutionPlan:
    """One fan-out decision: medium, batch size, and the math behind it."""

    mode: str                       # "serial" | "sharded"
    reason: str
    n_items: int
    workers: int
    chunk_size: int                 # items per pool task (sharded)
    n_tasks: int
    est_item_cost_s: Optional[float]
    overhead_per_task_s: float
    pool_startup_s: float
    serial_est_s: Optional[float]
    parallel_est_s: Optional[float]


# -- module state (per-process, like the shard memo caches) -----------------

_calibration: Dict[str, float] = {}
_cost_priors: Dict[str, Dict[str, Any]] = {}
_decisions: List[Dict[str, Any]] = []
_metrics = MetricsRegistry()


def usable_cores() -> int:
    """CPU cores this process may actually run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity support
        return os.cpu_count() or 1


def forced_mode() -> Optional[str]:
    """``REPRO_PLANNER`` as a force directive, or None for auto."""
    raw = os.environ.get(PLANNER_ENV_VAR, "").strip().lower()
    if not raw or raw == "auto":
        return None
    if raw not in _FORCE_MODES:
        raise ValueError(
            f"{PLANNER_ENV_VAR} must be one of {_FORCE_MODES}, got {raw!r}")
    return raw


# -- calibration ------------------------------------------------------------

def record_task_overhead(seconds: float) -> None:
    """Store the measured per-task dispatch overhead (once per process)."""
    _calibration["task_overhead_s"] = seconds


def record_pool_startup(seconds: float) -> None:
    """Store the most recent measured pool startup time."""
    _calibration["pool_startup_s"] = seconds


def is_calibrated() -> bool:
    """Whether dispatch overhead has been measured on a real pool."""
    return "task_overhead_s" in _calibration


def planner_calibration() -> Dict[str, float]:
    """A copy of the measured overhead/startup calibration."""
    return dict(_calibration)


# -- per-label cost priors --------------------------------------------------

def cost_prior(label: str) -> Optional[float]:
    """The learned per-item cost for a fan-out label, if any."""
    entry = _cost_priors.get(label)
    return None if entry is None else float(entry["cost_s"])


def update_cost_prior(label: str, per_item_s: float,
                      source: str = "serial") -> None:
    """Fold one measured per-item cost into the label's EMA."""
    if per_item_s < 0:
        return
    entry = _cost_priors.get(label)
    if entry is None:
        _cost_priors[label] = {"cost_s": per_item_s, "source": source,
                               "samples": 1}
        return
    entry["cost_s"] = (PRIOR_EMA_ALPHA * per_item_s
                       + (1.0 - PRIOR_EMA_ALPHA) * entry["cost_s"])
    entry["source"] = source
    entry["samples"] = int(entry["samples"]) + 1


def cost_priors() -> Dict[str, Dict[str, Any]]:
    """A copy of every learned per-label cost prior."""
    return {label: dict(entry) for label, entry in _cost_priors.items()}


# -- the decision -----------------------------------------------------------

def _chunk_for(est_item_cost_s: Optional[float], remaining: int,
               workers: int, overhead_s: float) -> int:
    """Batch size: enough work per task to drown dispatch overhead.

    Clamped so a single grid still spreads across every worker
    (``<= ceil(remaining / workers)``) and never exceeds the item
    count.
    """
    spread_cap = max(1, math.ceil(remaining / workers))
    if est_item_cost_s is None:
        # No estimate: balance-first heuristic.
        chunk = max(1, math.ceil(remaining
                                 / (workers * FORCED_TASKS_PER_WORKER)))
        return min(chunk, spread_cap, remaining)
    target_span = max(MIN_TASK_SPAN_S, OVERHEAD_MULTIPLE * overhead_s)
    if est_item_cost_s <= 0:
        chunk = remaining
    else:
        chunk = math.ceil(target_span / est_item_cost_s)
    return max(1, min(chunk, spread_cap, remaining))


def plan_execution(*, n_items: int, workers: int,
                   est_item_cost_s: Optional[float],
                   remaining: Optional[int] = None,
                   pool_is_warm: bool = False,
                   force: Optional[str] = None,
                   cores: Optional[int] = None) -> ExecutionPlan:
    """Decide serial vs batched-sharded for one fan-out.

    ``remaining`` is the item count still to execute (the caller may
    have already probed a few in-process); ``cores`` overrides the
    detected core count (tests exercise multi-core plans on one-core
    hosts).  ``force="sharded"`` skips the break-even comparison but
    still computes a batch size.
    """
    if n_items < 2:
        raise ValueError("planning needs at least two items")
    if workers < 2:
        raise ValueError("planning needs at least two workers")
    remaining = n_items if remaining is None else remaining
    if not 1 <= remaining <= n_items:
        raise ValueError(f"remaining must be in [1, {n_items}]")
    overhead = _calibration.get("task_overhead_s", DEFAULT_TASK_OVERHEAD_S)
    startup = (0.0 if pool_is_warm
               else _calibration.get("pool_startup_s",
                                     DEFAULT_POOL_STARTUP_S))
    chunk = _chunk_for(est_item_cost_s, remaining, workers, overhead)
    n_tasks = math.ceil(remaining / chunk)
    if force == "sharded":
        return ExecutionPlan(
            mode="sharded", reason="forced-sharded", n_items=n_items,
            workers=workers, chunk_size=chunk, n_tasks=n_tasks,
            est_item_cost_s=est_item_cost_s,
            overhead_per_task_s=overhead, pool_startup_s=startup,
            serial_est_s=None, parallel_est_s=None)
    if est_item_cost_s is None:
        raise ValueError("auto planning needs a cost estimate")
    effective = max(1, min(workers,
                           cores if cores is not None else usable_cores(),
                           n_tasks))
    serial_est = est_item_cost_s * remaining
    parallel_est = (startup + n_tasks * overhead
                    + serial_est / effective)
    if serial_est > PARALLEL_ADVANTAGE * parallel_est:
        mode, reason = "sharded", "parallel-wins"
    elif effective == 1:
        mode, reason = "serial", "single-core"
    else:
        mode, reason = "serial", "below-break-even"
    return ExecutionPlan(
        mode=mode, reason=reason, n_items=n_items, workers=workers,
        chunk_size=chunk, n_tasks=n_tasks,
        est_item_cost_s=est_item_cost_s, overhead_per_task_s=overhead,
        pool_startup_s=startup, serial_est_s=serial_est,
        parallel_est_s=parallel_est)


def trivial_plan(mode: str, reason: str, n_items: int,
                 workers: int) -> ExecutionPlan:
    """A decision that needed no cost model (forced, singleton, ...)."""
    return ExecutionPlan(
        mode=mode, reason=reason, n_items=n_items, workers=workers,
        chunk_size=n_items, n_tasks=1 if n_items else 0,
        est_item_cost_s=None,
        overhead_per_task_s=_calibration.get("task_overhead_s",
                                             DEFAULT_TASK_OVERHEAD_S),
        pool_startup_s=_calibration.get("pool_startup_s",
                                        DEFAULT_POOL_STARTUP_S),
        serial_est_s=None, parallel_est_s=None)


# -- decision log + metrics -------------------------------------------------

def record_decision(plan: ExecutionPlan, label: str) -> ExecutionPlan:
    """Append one decision to the log and mirror it into metrics."""
    entry = asdict(plan)
    entry["label"] = label
    _decisions.append(entry)
    _metrics.counter("planner.decisions", mode=plan.mode,
                     reason=plan.reason).inc()
    _metrics.counter("planner.items", mode=plan.mode).inc(plan.n_items)
    if plan.mode == "sharded":
        _metrics.counter("planner.tasks").inc(plan.n_tasks)
        _metrics.histogram("planner.chunk_size",
                           buckets=DEFAULT_COUNT_BUCKETS).observe(
                               plan.chunk_size)
    return plan


def note_probe(label: str) -> None:
    """Count one in-process cost probe (no prior existed for label)."""
    _metrics.counter("planner.probes").inc()


def note_pool_created() -> None:
    """Count one worker-pool creation (warm reuse does not increment)."""
    _metrics.counter("planner.pools_created").inc()


def note_pool_recycled(label: str) -> None:
    """Count one BrokenProcessPool recycle-and-retry.

    A worker death (OOM kill, signal) silently costs a full pool
    restart plus a recompute of the sharded region; this counter makes
    those incidents visible in the metrics snapshot.
    """
    _metrics.counter("planner.pool_recycles", label=label).inc()


def planner_decisions() -> List[Dict[str, Any]]:
    """The in-process decision log, oldest first (copies)."""
    return [dict(entry) for entry in _decisions]


def planner_metrics_snapshot() -> Snapshot:
    """The planner's own registry snapshot (mergeable like any other)."""
    return _metrics.snapshot()


def pools_created() -> int:
    """How many worker pools this process has created so far."""
    value = _metrics.counter_value("planner.pools_created")
    return int(value)


def reset_planner(*, calibration: bool = True, priors: bool = True,
                  decisions: bool = True) -> None:
    """Test/benchmark hook: return planner state to process-start."""
    global _metrics
    if calibration:
        _calibration.clear()
    if priors:
        _cost_priors.clear()
    if decisions:
        _decisions.clear()
        _metrics = MetricsRegistry()
