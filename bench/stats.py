"""Sample summaries: medians, quartiles and the tail a sample supports."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles a timing may be quoted at, lowest first, each with the
#: whole number k such that 1/k of the sample lies beyond it.
PERCENTILE_LADDER = ((50.0, 2), (75.0, 4), (90.0, 10), (95.0, 20),
                     (99.0, 100), (99.9, 1000))

#: A percentile is quoted only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be within 0..100, got {p}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def highest_supported_percentile(n_samples: int) -> Optional[float]:
    """The highest ladder percentile with >= 10 samples beyond it.

    ``None`` below 20 samples: not even the median has ten samples on
    its far side, so nothing above it may be quoted.
    """
    best = None
    for p, one_in in PERCENTILE_LADDER:
        if n_samples >= MIN_SAMPLES_BEYOND * one_in:
            best = p
    return best


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the comparator uses.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them; a
    sample of fewer than two values has no measurable spread (0.0).
    """
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Sample count, median, quartiles, max and the supported tail."""
    samples: List[float] = list(values)
    tail = highest_supported_percentile(len(samples))
    return {
        "n": len(samples),
        "p50": median(samples),
        "q1": percentile(samples, 25.0),
        "q3": percentile(samples, 75.0),
        "max": max(samples),
        "tail_percentile": tail,
        "tail_value": percentile(samples, tail) if tail is not None else None,
    }
