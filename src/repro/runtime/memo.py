"""Shard-local memoization of expensive pure inputs.

A sharded sweep hands each worker a stream of design points that share
most of their expensive inputs: the multi-source Dijkstra behind
``mean_hops_to_ground``, the coverage-transient dwell time, the epoch
snapshot of a constellation.  All of those are pure functions of
hashable arguments, so each worker process keeps a private cache and
computes each distinct input once -- "shard-local" because the caches
live in module state, which every forked/spawned worker owns
separately (and the pre-fork parent's warm cache is inherited for
free on fork platforms).
"""

from __future__ import annotations

import functools
from typing import Callable, List

#: Every function wrapped by :func:`shard_memoized`, for global clearing.
_MEMOIZED: List[Callable] = []


def shard_memoized(fn: Callable) -> Callable:
    """An unbounded ``lru_cache`` that :func:`clear_shard_caches` resets."""
    cached = functools.lru_cache(maxsize=None)(fn)
    _MEMOIZED.append(cached)
    return cached


def clear_shard_caches() -> None:
    """Drop every shard-local cache in this process (incl. snapshots).

    Benchmarks use this to time the real compute, and tests to prove
    cached and uncached paths agree.
    """
    for cached in _MEMOIZED:
        cached.cache_clear()
    # The epoch-keyed constellation snapshot LRU is the third expensive
    # pure input; it predates this module but is shard-local in exactly
    # the same sense.
    from ..orbits.snapshot import clear_snapshot_cache
    clear_snapshot_cache()


@shard_memoized
def cached_dwell_time_s(constellation) -> float:
    """Shard-local :func:`repro.orbits.coverage.mean_dwell_time_s`."""
    from ..orbits.coverage import mean_dwell_time_s
    return mean_dwell_time_s(constellation)
