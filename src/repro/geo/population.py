"""Global UE population model.

The paper drives its emulation with "the global distributions of UEs
from the World Bank [80]" -- per-country mobile-cellular subscription
counts.  We model the same distribution with weighted continental
regions: each region is a (latitude, longitude) box carrying a share of
the global subscriber base proportional to the World Bank 2019 totals
(Asia dominates, then Africa/Europe/Americas, oceans empty).

The model answers the question the experiments ask: how many users
fall inside a satellite footprint at a given sub-satellite point (for
analytic signaling loads and the Fig. 12 temporal sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..constants import EARTH_RADIUS_KM


@dataclass(frozen=True)
class Region:
    """A latitude/longitude box holding a share of global subscribers."""

    name: str
    lat_min_deg: float
    lat_max_deg: float
    lon_min_deg: float
    lon_max_deg: float
    weight: float

    def contains(self, lat: float, lon: float) -> bool:
        """Whether a (lat, lon) point in radians falls in the box."""
        lat_deg, lon_deg = math.degrees(lat), math.degrees(lon)
        in_lat = self.lat_min_deg <= lat_deg <= self.lat_max_deg
        if self.lon_min_deg <= self.lon_max_deg:
            in_lon = self.lon_min_deg <= lon_deg <= self.lon_max_deg
        else:  # box crossing the antimeridian
            in_lon = lon_deg >= self.lon_min_deg or lon_deg <= self.lon_max_deg
        return in_lat and in_lon

    def area_km2(self) -> float:
        """Spherical area of the box in km^2."""
        lat1 = math.radians(self.lat_min_deg)
        lat2 = math.radians(self.lat_max_deg)
        if self.lon_min_deg <= self.lon_max_deg:
            dlon = math.radians(self.lon_max_deg - self.lon_min_deg)
        else:
            dlon = math.radians(360.0 - self.lon_min_deg + self.lon_max_deg)
        return EARTH_RADIUS_KM**2 * dlon * (math.sin(lat2) - math.sin(lat1))


#: Continental boxes with 2019-era World Bank mobile subscription shares.
#: Weights sum to 1; oceans and polar caps carry (approximately) zero.
WORLD_BANK_REGIONS: Sequence[Region] = (
    Region("east-asia", 18, 54, 95, 146, 0.300),
    Region("south-asia", 5, 37, 60, 95, 0.170),
    Region("southeast-asia", -11, 18, 92, 155, 0.090),
    Region("europe", 36, 60, -10, 60, 0.130),
    Region("africa", -35, 36, -18, 52, 0.120),
    Region("north-america", 15, 55, -130, -60, 0.080),
    Region("south-america", -55, 13, -82, -34, 0.090),
    Region("oceania", -47, -10, 112, 179, 0.012),
    Region("middle-east-extra", 12, 40, 34, 60, 0.018),
)


class PopulationGrid:
    """Sampler and density oracle over the weighted regions."""

    def __init__(self, regions: Sequence[Region] = WORLD_BANK_REGIONS,
                 total_subscribers: float = 8.0e9):
        if not regions:
            raise ValueError("need at least one region")
        total_weight = sum(r.weight for r in regions)
        if total_weight <= 0:
            raise ValueError("region weights must be positive")
        self.regions: List[Region] = list(regions)
        self.total_subscribers = total_subscribers
        self._normalized = [r.weight / total_weight for r in self.regions]

    # -- density -----------------------------------------------------------------

    def density_at(self, lat: float, lon: float) -> float:
        """Subscribers per km^2 at a point (sum over covering regions)."""
        density = 0.0
        for region, share in zip(self.regions, self._normalized):
            if region.contains(lat, lon):
                density += share * self.total_subscribers / region.area_km2()
        return density

    def region_of(self, lat: float, lon: float) -> str:
        """Name of the densest region covering the point, or 'ocean'."""
        best_name, best_density = "ocean", 0.0
        for region, share in zip(self.regions, self._normalized):
            if region.contains(lat, lon):
                d = share * self.total_subscribers / region.area_km2()
                if d > best_density:
                    best_name, best_density = region.name, d
        return best_name

    def users_in_footprint(self, sat_lat: float, sat_lon: float,
                           footprint_radius_km: float,
                           resolution: int = 6) -> float:
        """Expected subscribers inside a satellite footprint.

        Numerically integrates the density over the cap by sampling a
        small polar grid around the sub-satellite point; adequate for
        the footprint sizes at LEO (hundreds of km).
        """
        theta = footprint_radius_km / EARTH_RADIUS_KM
        total = 0.0
        cap_area = 2.0 * math.pi * EARTH_RADIUS_KM**2 * (1 - math.cos(theta))
        samples = 0
        for i in range(resolution):
            # Rings of equal area within the cap.
            frac = (i + 0.5) / resolution
            ring_theta = math.acos(1.0 - frac * (1.0 - math.cos(theta)))
            for j in range(resolution):
                bearing = 2.0 * math.pi * (j + 0.5) / resolution
                lat, lon = _destination_point(sat_lat, sat_lon, ring_theta,
                                              bearing)
                total += self.density_at(lat, lon)
                samples += 1
        mean_density = total / samples
        return mean_density * cap_area

    def capped_users(self, sat_lat: float, sat_lon: float,
                     footprint_radius_km: float, capacity: int) -> float:
        """Users served by a satellite, limited by its capacity.

        The paper sweeps per-satellite capacities {2K, 10K, 20K, 30K};
        over dense land a satellite saturates at its capacity, over
        oceans it serves whatever is there.
        """
        return min(float(capacity),
                   self.users_in_footprint(sat_lat, sat_lon,
                                           footprint_radius_km))


def _destination_point(lat: float, lon: float, angular_distance: float,
                       bearing: float) -> Tuple[float, float]:
    """Great-circle destination from (lat, lon) along a bearing."""
    sin_lat = (math.sin(lat) * math.cos(angular_distance)
               + math.cos(lat) * math.sin(angular_distance)
               * math.cos(bearing))
    new_lat = math.asin(max(-1.0, min(1.0, sin_lat)))
    y = math.sin(bearing) * math.sin(angular_distance) * math.cos(lat)
    x = math.cos(angular_distance) - math.sin(lat) * math.sin(new_lat)
    new_lon = lon + math.atan2(y, x)
    # Normalise to (-pi, pi].
    new_lon = (new_lon + math.pi) % (2.0 * math.pi) - math.pi
    return new_lat, new_lon
