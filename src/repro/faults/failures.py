"""Failure models: satellite decay and intermittent radio links (Fig. 13).

Two empirically grounded processes:

* **satellite decay** -- about 1 in 40 Starlink satellites has failed
  [34, 35]; Fig. 13a shows the monthly additions and the cumulative
  curve.  We model failures as a per-satellite monthly hazard and
  reproduce the accumulation shape.
* **radio-link error bursts** -- Fig. 13b shows Tiantong frame error
  rates spiking intermittently (atmospheric attenuation).  We model a
  two-state Gilbert-Elliott channel: a low-error "good" state with
  occasional "bad" bursts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..constants import GATEWAY_PATH_HOPS, STARLINK_FAILURE_FRACTION


@dataclass(frozen=True)
class DecaySample:
    """One month of the Fig. 13a series."""

    month: int
    additions: int
    accumulated: int


def satellite_decay_series(fleet_size: int, months: int,
                           monthly_hazard: Optional[float] = None,
                           seed: int = 0) -> List[DecaySample]:
    """Monthly failure additions and the cumulative count (Fig. 13a).

    The default hazard is calibrated so roughly 1/40 of the fleet has
    failed after two years -- the paper's Starlink statistic.
    """
    if fleet_size < 0:
        raise ValueError("fleet_size must be non-negative")
    if months < 0:
        raise ValueError("months must be non-negative")
    if monthly_hazard is None:
        monthly_hazard = STARLINK_FAILURE_FRACTION / 24.0
    if not 0.0 <= monthly_hazard <= 1.0:
        raise ValueError("monthly_hazard must be in [0, 1]")
    rng = random.Random(seed)
    alive = fleet_size
    accumulated = 0
    series: List[DecaySample] = []
    for month in range(1, months + 1):
        additions = sum(1 for _ in range(alive)
                        if rng.random() < monthly_hazard)
        alive -= additions
        accumulated += additions
        series.append(DecaySample(month, additions, accumulated))
    return series


class GilbertElliottChannel:
    """Two-state bursty frame-error channel (Fig. 13b).

    ``good`` state: near-zero frame error rate; ``bad`` state: heavy
    loss.  Transitions are memoryless per sample step, producing the
    intermittent spikes of the Tiantong measurement.
    """

    def __init__(self, p_good_to_bad: float = 0.01,
                 p_bad_to_good: float = 0.2,
                 fer_good: float = 0.001, fer_bad: float = 0.35,
                 seed: int = 0):
        for p in (p_good_to_bad, p_bad_to_good, fer_good, fer_bad):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.fer_good = fer_good
        self.fer_bad = fer_bad
        self._rng = random.Random(seed)
        self.in_bad_state = False

    def step(self) -> float:
        """Advance one sampling interval; returns the current FER."""
        if self.in_bad_state:
            if self._rng.random() < self.p_bad_to_good:
                self.in_bad_state = False
        else:
            if self._rng.random() < self.p_good_to_bad:
                self.in_bad_state = True
        return self.fer_bad if self.in_bad_state else self.fer_good

    def series(self, steps: int) -> List[float]:
        """A FER time series (the Fig. 13b trace)."""
        return [self.step() for _ in range(steps)]

    @property
    def steady_state_bad_fraction(self) -> float:
        denom = self.p_good_to_bad + self.p_bad_to_good
        return self.p_good_to_bad / denom if denom else 0.0


def procedure_success_probability(message_count: int,
                                  per_message_loss: float,
                                  retries: int = 0) -> float:
    """Probability a stateful procedure completes despite link loss.

    S3.3: "any signaling loss/error can block the entire procedure" --
    success requires *every* message (with its retries) to get
    through.  Long flows are exponentially fragile, which is exactly
    why SpaceCore's 4-message local exchange wins under failures.
    """
    if not 0.0 <= per_message_loss <= 1.0:
        raise ValueError("loss must be a probability")
    if message_count < 0 or retries < 0:
        raise ValueError("counts must be non-negative")
    p_message = 1.0 - per_message_loss ** (retries + 1)
    return p_message ** message_count


def crossing_loss(per_hop_loss: float) -> float:
    """Loss of one message crossing the ISL path to the gateway: it
    must survive all :data:`~repro.constants.GATEWAY_PATH_HOPS` hops."""
    return 1.0 - (1.0 - per_hop_loss) ** GATEWAY_PATH_HOPS
