"""Synthetic signaling traces reproducing the Table 2 datasets.

The paper replays over-the-air signaling captured from three
operational satellite terminals (Inmarsat Explorer 710, Tiantong SC310
and T900) and three terrestrial 5G operators.  The captures themselves
are not public in raw form, so we synthesise traces with exactly the
Table 2 per-protocol message counts and the measured registration
delays (9.5 s Inmarsat, 13.5 s Tiantong; Fig. 5b) -- the two
properties every downstream experiment consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..constants import (
    INMARSAT_REGISTRATION_DELAY_S,
    TIANTONG_REGISTRATION_DELAY_S,
)

#: Table 2, verbatim: messages per protocol layer per source.
TABLE2_COUNTS: Dict[str, Dict[str, int]] = {
    "inmarsat-explorer-710": {
        "L1/L2": 56_231, "RRC": 40_800, "MM": 57_264, "SM": 53_868,
        "Others": 762_957,
    },
    "tiantong-sc310": {
        "L1/L2": 1_744_094, "RRC": 4_226, "MM": 43_555, "SM": 4_586,
        "Others": 310_455,
    },
    "tiantong-t900": {
        "L1/L2": 3_887_429, "RRC": 1_340, "MM": 12_626, "SM": 1_670,
        "Others": 376_671,
    },
    "china-telecom": {
        "L1/L2": 3_828_083, "RRC": 28_841, "MM": 605, "SM": 203,
        "Others": 0,
    },
    "china-unicom": {
        "L1/L2": 1_475_393, "RRC": 14_833, "MM": 970, "SM": 338,
        "Others": 0,
    },
    "china-mobile": {
        "L1/L2": 8_405_587, "RRC": 69_782, "MM": 4_194, "SM": 925,
        "Others": 0,
    },
}

#: Which sources are satellite terminals (vs terrestrial 5G phones).
SATELLITE_SOURCES = ("inmarsat-explorer-710", "tiantong-sc310",
                     "tiantong-t900")
TERRESTRIAL_SOURCES = ("china-telecom", "china-unicom", "china-mobile")

#: Mean registration delay per satellite terminal family (S2.2).
REGISTRATION_DELAY_S: Dict[str, float] = {
    "inmarsat-explorer-710": INMARSAT_REGISTRATION_DELAY_S,
    "tiantong-sc310": TIANTONG_REGISTRATION_DELAY_S,
    "tiantong-t900": TIANTONG_REGISTRATION_DELAY_S,
}


@dataclass(frozen=True)
class TraceMessage:
    """One replayed signaling message."""

    time_s: float
    source: str
    layer: str


def total_messages(source: str) -> int:
    """Table 2's "Total" row."""
    return sum(TABLE2_COUNTS[source].values())


def layer_mix(source: str) -> Dict[str, float]:
    """Per-layer fraction of the source's traffic."""
    counts = TABLE2_COUNTS[source]
    total = sum(counts.values())
    return {layer: count / total for layer, count in counts.items()}


def synthesize(source: str, num_messages: int,
               duration_s: float = 3600.0,
               seed: int = 0) -> List[TraceMessage]:
    """A trace with the source's exact layer mix, Poisson-timed.

    ``num_messages`` scales the replay; the *mix* always matches
    Table 2 to within sampling error.
    """
    if source not in TABLE2_COUNTS:
        raise KeyError(f"unknown source {source!r}; know "
                       f"{sorted(TABLE2_COUNTS)}")
    if num_messages < 0:
        raise ValueError("num_messages cannot be negative")
    rng = random.Random(seed)
    mix = layer_mix(source)
    layers = list(mix)
    weights = [mix[layer] for layer in layers]
    times = sorted(rng.uniform(0.0, duration_s)
                   for _ in range(num_messages))
    return [TraceMessage(t, source, rng.choices(layers, weights)[0])
            for t in times]


def registration_delay_samples(source: str, count: int) -> List[float]:
    """Registration-delay samples matching the measured means (Fig. 5b).

    Modelled as a shifted exponential: a fixed GEO/processing floor
    plus an exponential queueing tail, with the documented mean.
    """
    mean = REGISTRATION_DELAY_S.get(source)
    if mean is None:
        raise KeyError(f"{source!r} is not a satellite terminal with a "
                       "measured registration delay")
    rng = random.Random(0)
    floor = 0.55 * mean
    tail = mean - floor
    return [floor + rng.expovariate(1.0 / tail) for _ in range(count)]


def table2_summary() -> List[Tuple[str, Dict[str, int], int]]:
    """The full Table 2, one row per source, with totals."""
    return [(source, dict(counts), total_messages(source))
            for source, counts in TABLE2_COUNTS.items()]
