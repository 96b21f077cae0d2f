"""Temporal dynamics of one satellite's signaling load (Fig. 12).

A fast-moving LEO satellite sweeps continents and oceans within one
orbit (~95 minutes).  Its Option 3 signaling load tracks the
population under its footprint: bursts over South America, Africa,
Europe/Asia, Oceania, near-silence over open ocean -- the Fig. 12
time series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..baselines.options import option3_session_mobility
from ..geo.population import PopulationGrid
from ..orbits.constellation import Constellation
from ..orbits.coverage import footprint_radius_km, mean_dwell_time_s
from ..orbits.propagator import IdealPropagator


@dataclass(frozen=True)
class TemporalSample:
    """One Fig. 12 time point."""

    t_s: float
    lat_deg: float
    lon_deg: float
    region: str
    users_served: float
    signaling_per_s: float
    state_tx_per_s: float


def satellite_ground_track_load(
        constellation: Constellation,
        capacity: int,
        step_s: float = 60.0
        ) -> List[TemporalSample]:
    """Signaling and state-transmission load along one ground track:
    satellite (0, 0) over 6000 s.

    ``signaling_per_s`` counts the messages the satellite handles for
    its own users (Fig. 12 left); ``state_tx_per_s`` counts the state
    items migrated (Fig. 12 right).
    """
    solution = option3_session_mobility()
    # An early satellite-direct service serves an operator-scale
    # subscriber base (millions, not billions); this is what makes the
    # per-region structure of Fig. 12 visible below the per-satellite
    # capacity cap.
    population = PopulationGrid(total_subscribers=2.0e6)
    propagator = IdealPropagator(constellation)
    radius = footprint_radius_km(constellation.altitude_km,
                                 constellation.min_elevation_deg)
    dwell = mean_dwell_time_s(constellation)
    rates = solution.procedure_rates_per_user(dwell)

    per_user_msgs = 0.0
    per_user_states = 0.0
    for kind, rate in rates.items():
        flow = solution.flow(kind)
        per_user_msgs += rate * solution.satellite_messages(flow)
        per_user_states += rate * sum(
            len(m.carries) + len(m.creates) for m in flow)

    import math
    samples: List[TemporalSample] = []
    t = 0.0
    while t <= 6000.0:
        lat, lon = propagator.state(0, 0, t).subpoint()
        users = population.capped_users(lat, lon, radius, capacity)
        samples.append(TemporalSample(
            t_s=t,
            lat_deg=math.degrees(lat),
            lon_deg=math.degrees(lon),
            region=population.region_of(lat, lon),
            users_served=users,
            signaling_per_s=users * per_user_msgs,
            state_tx_per_s=users * per_user_states,
        ))
        t += step_s
    return samples


def load_variation(samples: List[TemporalSample]) -> Tuple[float, float]:
    """(peak, trough) of the signaling series: the burstiness claim."""
    loads = [s.signaling_per_s for s in samples]
    return max(loads), min(loads)
