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
from typing import Optional

from ..geo.cells import GeospatialCellGrid
from ..orbits.coverage import footprint_area_km2
from ..orbits.constellation import Constellation

#: Default DRX cycle (s): idle UEs wake this often to check paging.
DEFAULT_DRX_CYCLE_S = 1.28

#: Paging occasions per DRX cycle.
OCCASIONS_PER_CYCLE = 4


@dataclass(frozen=True)
class PagingOccasion:
    """When a given UE listens for pages."""

    cycle_s: float
    offset_s: float

    def next_after(self, now_s: float) -> float:
        """The first listening instant at or after ``now_s``."""
        if now_s <= self.offset_s:
            return self.offset_s
        cycles = math.ceil((now_s - self.offset_s) / self.cycle_s)
        return self.offset_s + cycles * self.cycle_s


def occasion_for(ue_suffix: int,
                 drx_cycle_s: float = DEFAULT_DRX_CYCLE_S
                 ) -> PagingOccasion:
    """Derive a UE's paging occasion from its identity (TS 38.304).

    Deterministic hashing of the UE suffix spreads UEs across the
    cycle's occasions, exactly like the standard's UE_ID mod N rule.
    """
    if ue_suffix < 0:
        raise ValueError("UE suffix must be non-negative")
    slot = ue_suffix % OCCASIONS_PER_CYCLE
    offset = slot * (drx_cycle_s / OCCASIONS_PER_CYCLE)
    return PagingOccasion(drx_cycle_s, offset)


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
    avg_cell = (4.0 * math.pi * 6371.0**2
                * math.sin(constellation.inclination_rad)
                / grid.num_cells)
    # One satellite covers an average cell; big Iridium-class cells
    # may need the neighbouring satellite too.
    satellites = max(1.0, avg_cell / footprint)
    return PagingCost("geospatial-cell", satellites,
                      min(avg_cell, footprint * satellites))


class PagingTransaction:
    """One network-initiated reach attempt for an idle UE."""

    def __init__(self, ue_suffix: int,
                 drx_cycle_s: float = DEFAULT_DRX_CYCLE_S):
        self.occasion = occasion_for(ue_suffix, drx_cycle_s)
        self.attempts = 0
        self.answered_at: Optional[float] = None

    def page(self, now_s: float, ue_reachable: bool,
             response_delay_s: float = 0.02) -> Optional[float]:
        """Page at ``now_s``; returns the answer time or None.

        The page is transmitted at the UE's next occasion; a reachable
        UE answers one radio round trip later.
        """
        self.attempts += 1
        if not ue_reachable:
            return None
        listen_at = self.occasion.next_after(now_s)
        self.answered_at = listen_at + response_delay_s
        return self.answered_at
