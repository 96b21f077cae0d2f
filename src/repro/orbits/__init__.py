"""Orbital mechanics substrate: constellations, propagation, coverage.

This package is the satellite-dynamics foundation of the reproduction:
Walker constellations from Table 1, ideal and J4 propagators, the
paper's (alpha, gamma) inclined coordinate system, coverage footprints
and the ground-station catalog.
"""

from .constellation import (
    Constellation,
    TABLE1,
    by_name,
    iridium,
    kuiper,
    oneweb,
    starlink,
)
from .coordinates import InclinedCoordinateSystem, wrap_angle, wrap_signed
from .coverage import (
    coverage_half_angle,
    footprint_area_km2,
    footprint_radius_km,
    mean_dwell_time_s,
    serving_satellite,
)
from .groundstations import (
    GroundStation,
    default_ground_stations,
    nearest_station,
)
from .propagator import (
    IdealPropagator,
    J4Propagator,
    OrbitState,
    make_propagator,
)
from .snapshot import (
    ConstellationSnapshot,
    clear_snapshot_cache,
    serving_over_times,
    snapshot_cache_info,
    snapshot_for,
)

__all__ = [
    "Constellation",
    "TABLE1",
    "by_name",
    "starlink",
    "oneweb",
    "kuiper",
    "iridium",
    "InclinedCoordinateSystem",
    "wrap_angle",
    "wrap_signed",
    "coverage_half_angle",
    "footprint_radius_km",
    "footprint_area_km2",
    "mean_dwell_time_s",
    "serving_satellite",
    "GroundStation",
    "default_ground_stations",
    "nearest_station",
    "IdealPropagator",
    "J4Propagator",
    "OrbitState",
    "make_propagator",
    "ConstellationSnapshot",
    "snapshot_for",
    "clear_snapshot_cache",
    "snapshot_cache_info",
    "serving_over_times",
]
