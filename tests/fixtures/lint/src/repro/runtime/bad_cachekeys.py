"""Known-bad fixture: both cache-key soundness rules fire here."""

import functools
from typing import Dict, List

from repro.runtime.memo import shard_memoized

#: Mutable module global a memoized function must not read.
_TUNING: Dict[str, float] = {"spacing_km": 50.0}

#: Immutable module global: reading this is fine.
_LIMIT = 64


@functools.lru_cache(maxsize=None)
def mean_hops(stations: List[str], t: float = 0.0) -> float:
    # cache-key-unhashable: List parameter on an lru_cache function.
    return float(len(stations)) + t


@shard_memoized
def dwell_profile(stations, t: float = 0.0) -> float:
    # cache-mutable-global: result depends on _TUNING, which is
    # outside the cache key.
    return _TUNING["spacing_km"] * t + _LIMIT


@functools.lru_cache(maxsize=None)
def hops_with_default(extra: list = []) -> int:
    # cache-key-unhashable: mutable default.
    return len(extra)


@shard_memoized
def sound_cached(stations: tuple, t: float = 0.0) -> float:
    # Negative control: hashable params, locals shadow nothing.
    spacing = 50.0
    return spacing * t + len(stations)
