"""Moving service areas (Fig. 11): the root cause, quantified.

Legacy designs bind the service area to the serving node, so a
*static* UE's tracking area changes every satellite pass.  SpaceCore's
geospatial areas are frozen at t=0.  This module counts, over an
observation window, how many distinct service areas a static UE
traverses under each definition -- Fig. 11's cartoon as a measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..geo.cells import GeospatialCellGrid
from ..orbits.constellation import Constellation
from ..orbits.propagator import IdealPropagator
from ..orbits.snapshot import sample_times, serving_over_times


@dataclass(frozen=True)
class ServiceAreaChurn:
    """Service-area changes seen by one static UE."""

    definition: str
    distinct_areas: int
    area_changes: int
    changes_per_hour: float


def logical_area_churn(constellation: Constellation, lat_deg: float,
                       lon_deg: float, duration_s: float = 3600.0
                       ) -> ServiceAreaChurn:
    """Churn when the tracking area is the serving satellite's, sampled
    every 20 s."""
    propagator = IdealPropagator(constellation)
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    # The whole serving-satellite timeline comes from one vectorised
    # time-grid sweep; only the churn bookkeeping stays in Python.
    servers = serving_over_times(
        propagator, sample_times(0.0, duration_s, 20.0), lat, lon)
    seen = set()
    changes = 0
    current: Optional[int] = None
    for sat in servers:
        sat = int(sat)
        if sat >= 0:
            seen.add(sat)
            if current is not None and sat != current:
                changes += 1
            current = sat
    return ServiceAreaChurn("logical (satellite-bound)", len(seen),
                            changes, changes * 3600.0 / duration_s)


def geospatial_area_churn(constellation: Constellation, lat_deg: float,
                          lon_deg: float,
                          duration_s: float = 3600.0) -> ServiceAreaChurn:
    """Churn under SpaceCore's frozen geospatial cells, sampled every
    20 s: zero, always."""
    grid = GeospatialCellGrid(constellation)
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    seen = set()
    changes = 0
    current: Optional[Tuple[int, int]] = None
    t = 0.0
    while t <= duration_s:
        cell = grid.cell_of(lat, lon)
        seen.add(cell)
        if current is not None and cell != current:
            changes += 1
        current = cell
        t += 20.0
    return ServiceAreaChurn("geospatial (SpaceCore)", len(seen),
                            changes, changes * 3600.0 / duration_s)


def fig11_comparison(constellation: Constellation,
                     duration_s: float = 3600.0
                     ) -> List[ServiceAreaChurn]:
    """Both definitions, side by side, for one static UE in Beijing."""
    return [
        logical_area_churn(constellation, 39.9, 116.4, duration_s),
        geospatial_area_churn(constellation, 39.9, 116.4, duration_s),
    ]
