"""Ground-station (gateway) catalog.

The paper's emulation places ground stations following the published
Starlink gateway map ([78]).  That map is a proprietary crowd-sourced
dataset; we ship a representative catalog of real gateway cities with
the same qualitative distribution -- clustered in North America and
Europe, sparse over oceans, Africa and high latitudes -- which is the
property that produces the space-terrestrial asymmetry the paper
studies (few ground stations aggregating the traffic of many
satellites).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .coordinates import central_angle


@dataclass(frozen=True)
class GroundStation:
    """A terrestrial gateway that hosts (or fronts) home core functions."""

    name: str
    lat_deg: float
    lon_deg: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat_deg) and math.isfinite(self.lon_deg)
                and abs(self.lat_deg) <= 90.0):
            raise ValueError(
                f"ground station {self.name!r}: lat_deg/lon_deg must be "
                f"finite degrees with |lat_deg| <= 90, got "
                f"({self.lat_deg!r}, {self.lon_deg!r})")

    @property
    def lat(self) -> float:
        return math.radians(self.lat_deg)

    @property
    def lon(self) -> float:
        return math.radians(self.lon_deg)


#: Representative gateway sites (name, lat, lon).  The skew towards
#: North America / Europe mirrors the operational deployments in [78].
_DEFAULT_SITES: Sequence[Tuple[str, float, float]] = (
    ("north-bend-wa", 47.5, -121.8),
    ("merrillan-wi", 44.4, -90.8),
    ("hawthorne-ca", 33.9, -118.3),
    ("boca-chica-tx", 25.9, -97.2),
    ("gaffney-sc", 35.1, -81.6),
    ("conrad-mt", 48.2, -111.9),
    ("kalama-wa", 46.0, -122.8),
    ("st-johns-ca", 53.0, -60.0),
    ("chalfont-uk", 51.6, -0.6),
    ("fawley-uk", 50.8, -1.4),
    ("aubergenville-fr", 48.9, 1.9),
    ("frankfurt-de", 50.1, 8.7),
    ("turin-it", 45.1, 7.7),
    ("madrid-es", 40.4, -3.7),
    ("warsaw-pl", 52.2, 21.0),
    ("sydney-au", -33.9, 151.2),
    ("merredin-au", -31.5, 118.3),
    ("auckland-nz", -36.8, 174.8),
    ("santiago-cl", -33.4, -70.7),
    ("sao-paulo-br", -23.5, -46.6),
    ("lagos-ng", 6.5, 3.4),
    ("nairobi-ke", -1.3, 36.8),
    ("tokyo-jp", 35.7, 139.7),
    ("beijing-cn", 39.9, 116.4),
    ("mumbai-in", 19.1, 72.9),
    ("anchorage-ak", 61.2, -149.9),
)


#: Built once: the stations are frozen, and the warm worker pool
#: compares shared objects by identity, so a rebuilt catalog would
#: tear the pool down on every sweep that takes the default.
_DEFAULT_STATIONS: Tuple[GroundStation, ...] = tuple(
    GroundStation(name, lat, lon) for name, lat, lon in _DEFAULT_SITES)


def default_ground_stations(count: Optional[int] = None
                            ) -> List[GroundStation]:
    """The default gateway catalog; optionally truncated to ``count``."""
    if count is not None and count < 1:
        raise ValueError("need at least one ground station")
    return list(_DEFAULT_STATIONS[:count])


def nearest_station(lat: float, lon: float,
                    stations: Sequence[GroundStation]) -> GroundStation:
    """Ground station closest (great circle) to ``(lat, lon)`` radians."""
    if not stations:
        raise ValueError("empty ground-station list")
    return min(stations,
               key=lambda gs: central_angle(lat, lon, gs.lat, gs.lon))


def station_load_shares(sat_subpoints: Sequence[Tuple[float, float]],
                        stations: Sequence[GroundStation]) -> List[int]:
    """How many satellites each station serves (nearest-gateway rule).

    Returns a per-station satellite count aligned with ``stations``;
    the max/mean ratio of this vector quantifies the space-terrestrial
    asymmetry that turns gateways into bottlenecks (Fig. 5a).
    """
    counts = [0] * len(stations)
    index = {id(gs): i for i, gs in enumerate(stations)}
    for lat, lon in sat_subpoints:
        gs = nearest_station(lat, lon, stations)
        counts[index[id(gs)]] += 1
    return counts
