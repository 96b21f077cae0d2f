"""Space-terrestrial asymmetry bottlenecks (Fig. 5, S2.2).

Two demonstrations with the transparent-pipe (bent-pipe) architecture:

* **gateway concentration** (Fig. 5a): few ground stations terminate
  the traffic of many satellites, so the busiest gateway carries a
  large multiple of the mean;
* **registration latency** (Fig. 5b): replayed Inmarsat/Tiantong
  registrations take ~9.5/13.5 s through remote gateways -- orders of
  magnitude above 5G's <10 ms baseband deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..constants import BASEBAND_DEADLINE_S
from ..orbits.constellation import Constellation
from ..orbits.groundstations import (
    default_ground_stations,
    station_load_shares,
)
from ..orbits.propagator import IdealPropagator
from ..workload.traces import registration_delay_samples


@dataclass(frozen=True)
class GatewayConcentration:
    """Fig. 5a: how unevenly satellites map onto gateways."""

    constellation: str
    num_gateways: int
    max_satellites: int
    mean_satellites: float

    @property
    def concentration_factor(self) -> float:
        return (self.max_satellites / self.mean_satellites
                if self.mean_satellites else 0.0)


def gateway_concentration(constellation: Constellation
                          ) -> GatewayConcentration:
    """Compute the Fig. 5a satellite-per-gateway concentration at t = 0."""
    stations = default_ground_stations()
    propagator = IdealPropagator(constellation)
    subpoints = [tuple(row) for row in propagator.subpoints(0.0)]
    shares = station_load_shares(subpoints, stations)
    return GatewayConcentration(
        constellation=constellation.name,
        num_gateways=len(stations),
        max_satellites=max(shares),
        mean_satellites=sum(shares) / len(shares),
    )


def registration_delay_cdf(source: str) -> List[Tuple[float, float]]:
    """The Fig. 5b CDF: (delay_s, cumulative fraction) points of 500
    samples."""
    delays = sorted(registration_delay_samples(source, 500))
    return [(delay, (i + 1) / len(delays))
            for i, delay in enumerate(delays)]


def deadline_violation_factor(source: str) -> float:
    """How many times over the 5G baseband deadline the median of the
    Fig. 5b CDF sits."""
    cdf = registration_delay_cdf(source)
    median = cdf[len(cdf) // 2][0]
    return median / BASEBAND_DEADLINE_S
