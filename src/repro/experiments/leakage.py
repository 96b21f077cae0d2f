"""State-leakage comparison under attacks (Fig. 19).

Wraps the fault models with the evaluation's configuration: Starlink,
30K-user satellites, a constellation-wide subscriber base, hijacking
(Fig. 19a, cumulative over 100 minutes) and man-in-the-middle passive
listening without IPsec (Fig. 19b, per-second rates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..baselines.solutions import ALL_SOLUTIONS
from ..constants import SATELLITE_CAPACITY
from ..faults.attacks import (
    HijackScenario,
    hijack_leak_series,
    mitm_comparison,
)
from ..orbits.constellation import Constellation
from ..orbits.coverage import mean_dwell_time_s


@dataclass(frozen=True)
class LeakageStudy:
    """Both panels of Fig. 19 for one configuration."""

    hijack_series: Dict[str, List[Tuple[float, float]]]
    mitm_rates: Dict[str, float]


def fig19_study(constellation: Constellation) -> LeakageStudy:
    """Run the full Fig. 19 comparison over 6000 s.

    Satellites serve :data:`~repro.constants.SATELLITE_CAPACITY` users
    each.  The constellation-wide base a SkyCore-style design
    pre-provisions on every node is 65K subscribers per satellite; with
    ~1.5k satellites this lands at the 1e8 scale of the paper's y-axis.
    """
    dwell = mean_dwell_time_s(constellation)
    scenario = HijackScenario(
        capacity=SATELLITE_CAPACITY,
        total_subscribers=65_000 * constellation.total_satellites,
        dwell_s=dwell,
    )
    series = {}
    rates = {}
    solutions = [factory() for factory in ALL_SOLUTIONS]
    for solution in solutions:
        series[solution.name] = hijack_leak_series(solution, scenario,
                                                   6000.0)
    rates = mitm_comparison(solutions, SATELLITE_CAPACITY, dwell)
    return LeakageStudy(hijack_series=series, mitm_rates=rates)


def final_hijack_leaks(study: LeakageStudy) -> Dict[str, float]:
    """Cumulative leaked states at the end of the hijack window."""
    return {name: series[-1][1]
            for name, series in study.hijack_series.items()}
