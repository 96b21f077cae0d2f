"""Sharded parallel experiment runtime.

The reproduction's experiments are embarrassingly parallel at three
grains -- Monte Carlo trials (chaos availability), cartesian design
points (signaling sweeps, sensitivity grids), and rate points (CPU /
latency curves).  TEGRA makes the same observation for the terrestrial
core control plane: signaling scale comes from sharding independent
work units across workers.  This package is that spine:

* :mod:`.parallel` -- a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out with deterministic per-shard seed derivation, a warm
  cross-call worker pool, batched shard dispatch, an
  initializer-installed shared-object registry, and a serial fallback
  (``REPRO_WORKERS=1``) that is bit-identical to the pre-runtime
  per-loop code;
* :mod:`.planner` -- the execution policy: a time-boxed in-process
  prefix that is the fan-out's own cost estimate, one heavy/light bit
  per label, fixed chunking, with every decision logged;
* :mod:`.memo` -- shard-local memoization of expensive pure inputs
  (mean ISL hops to a gateway) so workers never recompute topology per
  design point;
* :mod:`.cohort` -- a vectorized UE-cohort signaling engine that makes
  a 1M-UE load point O(cohorts) instead of O(users).
"""

from .cohort import CohortStats, UECohortEngine
from .memo import clear_shard_caches, shard_memoized
from .parallel import (
    WORKERS_ENV_VAR,
    get_shared,
    pools_created,
    resolve_workers,
    run_sharded,
    seed_for,
    shutdown_worker_pools,
)
from .planner import PLANNER_ENV_VAR, planner_decisions, reset_planner

__all__ = [
    "CohortStats",
    "PLANNER_ENV_VAR",
    "UECohortEngine",
    "WORKERS_ENV_VAR",
    "clear_shard_caches",
    "get_shared",
    "planner_decisions",
    "pools_created",
    "reset_planner",
    "resolve_workers",
    "run_sharded",
    "seed_for",
    "shard_memoized",
    "shutdown_worker_pools",
]
