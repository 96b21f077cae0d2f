"""Paging: locating an idle UE for downlink delivery.

Algorithm 1's delivery step is "Run paging and forward packet to D".
Legacy 5G pages across the *tracking area* -- every base station in
the area transmits the page.  With satellite-bound logical tracking
areas this is expensive and unstable; SpaceCore pages within the
destination's *geospatial cell*, which exactly one (or two overlapping)
satellites cover at any moment.

This module quantifies that difference and implements the paging
transaction: occasion calculation from the UE identity (DRX), the
page, and the response window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import EARTH_RADIUS_KM
from ..geo.cells import GeospatialCellGrid
from ..orbits.coverage import footprint_area_km2
from ..orbits.constellation import Constellation

#: Default DRX cycle (s): idle UEs wake this often to check paging.
DEFAULT_DRX_CYCLE_S = 1.28

#: Paging occasions per DRX cycle.
OCCASIONS_PER_CYCLE = 4


@dataclass(frozen=True)
class PagingCost:
    """Cells/satellites that must transmit one page."""

    strategy: str
    transmitting_satellites: float
    paged_area_km2: float


def legacy_tracking_area_cost(constellation: Constellation,
                              cells_per_tracking_area: int = 16
                              ) -> PagingCost:
    """Legacy paging: every satellite covering the tracking area pages.

    Tracking areas group many cells; with satellite-bound logical
    areas, the pages go to every satellite currently mapped into the
    area.
    """
    footprint = footprint_area_km2(constellation.altitude_km,
                                   constellation.min_elevation_deg)
    area = footprint * cells_per_tracking_area
    satellites = max(1.0, area / footprint)
    return PagingCost("legacy-tracking-area", satellites, area)


def geospatial_cell_cost(grid: GeospatialCellGrid) -> PagingCost:
    """SpaceCore paging: only the cell's covering satellite pages.

    The destination's cell is in its address; Algorithm 1 delivers the
    packet to the covering satellite, which transmits the page over
    one footprint.
    """
    constellation = grid.constellation
    footprint = footprint_area_km2(constellation.altitude_km,
                                   constellation.min_elevation_deg)
    avg_cell = (4.0 * math.pi * EARTH_RADIUS_KM**2
                * math.sin(constellation.inclination_rad)
                / grid.num_cells)
    # One satellite covers an average cell; big Iridium-class cells
    # may need the neighbouring satellite too.
    satellites = max(1.0, avg_cell / footprint)
    return PagingCost("geospatial-cell", satellites,
                      min(avg_cell, footprint * satellites))
