"""Geospatial state simplification: cells, addressing, population.

Implements S4.1 of the paper: the geospatial cell grid decoupled from
satellites (its analytic cell-crossing rate backs S4.3's claim that
a moving UE rarely changes cell), the 128-bit geospatial UE address,
and the World-Bank-like population model that drives per-satellite
load.
"""

from .addressing import AddressAllocator, GeospatialAddress
from .cells import CellStatistics, GeospatialCellGrid
from .population import PopulationGrid, Region, WORLD_BANK_REGIONS

__all__ = [
    "AddressAllocator",
    "GeospatialAddress",
    "CellStatistics",
    "GeospatialCellGrid",
    "PopulationGrid",
    "Region",
    "WORLD_BANK_REGIONS",
]
