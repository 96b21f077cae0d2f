"""Walker constellation model and the Table 1 presets.

The paper's evaluation runs on four operational LEO mega-constellations
(Table 1).  All four are *uniform* Walker constellations: ``num_planes``
circular orbits with a common inclination, spread uniformly in right
ascension, each holding ``sats_per_plane`` evenly spaced satellites.

A satellite is identified by ``(plane, slot)`` or by a flat index
``plane * sats_per_plane + slot``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..constants import (
    EARTH_RADIUS_KM,
    TWO_PI,
    mean_motion_rad_s,
    orbital_period_s,
    orbital_speed_km_s,
)


@dataclass(frozen=True)
class Constellation:
    """A uniform Walker constellation (Table 1 of the paper).

    Parameters
    ----------
    name:
        Human-readable constellation name.
    sats_per_plane:
        ``n`` in the paper: satellites per orbit.
    num_planes:
        ``m`` in the paper: number of orbital planes.
    altitude_km:
        ``H`` in the paper.
    inclination_deg:
        Inclination angle of every plane.
    raan_spread:
        Angular span (radians) over which plane RAANs are distributed.
        Inclined constellations (Starlink, Kuiper) use a full ``2*pi``
        Walker-delta spread; near-polar "star" constellations (OneWeb,
        Iridium) spread ascending nodes over ``pi`` so ascending and
        descending half-orbits interleave.
    phasing_factor:
        Walker phasing factor ``F``: slot ``k`` of plane ``p`` is offset
        by ``2*pi*F*p/(n*m)`` along the orbit.
    min_elevation_deg:
        Minimum elevation angle for a user to be served; controls the
        coverage footprint.
    """

    name: str
    sats_per_plane: int
    num_planes: int
    altitude_km: float
    inclination_deg: float
    raan_spread: float = TWO_PI
    phasing_factor: int = 1
    min_elevation_deg: float = 25.0

    def __post_init__(self) -> None:
        if self.sats_per_plane < 1 or self.num_planes < 1:
            raise ValueError("constellation must have >=1 plane and >=1 slot")
        if not 0.0 < self.inclination_deg <= 180.0:
            raise ValueError("inclination must be in (0, 180] degrees")
        if self.altitude_km <= 0:
            raise ValueError("altitude must be positive")

    # -- derived geometry ---------------------------------------------------

    @property
    def total_satellites(self) -> int:
        """``n * m`` in the paper."""
        return self.sats_per_plane * self.num_planes

    @property
    def inclination_rad(self) -> float:
        return math.radians(self.inclination_deg)

    @property
    def semi_major_axis_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def period_s(self) -> float:
        return orbital_period_s(self.altitude_km)

    @property
    def mean_motion(self) -> float:
        """Mean motion (rad/s)."""
        return mean_motion_rad_s(self.altitude_km)

    @property
    def speed_km_s(self) -> float:
        """Orbital speed; Table 1 quotes 7.3-7.6 km/s for these shells."""
        return orbital_speed_km_s(self.altitude_km)

    @property
    def delta_raan(self) -> float:
        """RAAN spacing between adjacent planes (rad): the paper's d-alpha."""
        return self.raan_spread / self.num_planes

    @property
    def delta_phase(self) -> float:
        """In-plane spacing between adjacent satellites (rad): d-gamma."""
        return TWO_PI / self.sats_per_plane

    # -- satellite enumeration ----------------------------------------------

    def raan_of_plane(self, plane: int) -> float:
        """Right ascension of the ascending node of ``plane`` at epoch."""
        return (plane % self.num_planes) * self.delta_raan

    def phase_of_slot(self, plane: int, slot: int) -> float:
        """Argument of latitude of ``(plane, slot)`` at epoch (t=0)."""
        base = (slot % self.sats_per_plane) * self.delta_phase
        walker = TWO_PI * self.phasing_factor * plane / self.total_satellites
        return (base + walker) % TWO_PI

    def sat_index(self, plane: int, slot: int) -> int:
        """Flat identifier of satellite ``(plane, slot)``."""
        return (plane % self.num_planes) * self.sats_per_plane + (
            slot % self.sats_per_plane
        )

    def plane_slot(self, index: int) -> Tuple[int, int]:
        """Inverse of :meth:`sat_index`."""
        index %= self.total_satellites
        return divmod(index, self.sats_per_plane)[0], index % self.sats_per_plane


# ---------------------------------------------------------------------------
# Table 1 presets
# ---------------------------------------------------------------------------

def starlink() -> Constellation:
    """Starlink shell 1: 22 satellites x 72 planes at 550 km, 53 deg."""
    return Constellation(
        name="Starlink",
        sats_per_plane=22,
        num_planes=72,
        altitude_km=550.0,
        inclination_deg=53.0,
        # A ~32 degree mask reproduces the paper's 165.8 s transient
        # coverage per satellite (S3.2).
        min_elevation_deg=32.0,
    )


def oneweb() -> Constellation:
    """OneWeb: 40 satellites x 18 planes at 1200 km, 87.9 deg (near-polar)."""
    return Constellation(
        name="OneWeb",
        sats_per_plane=40,
        num_planes=18,
        altitude_km=1200.0,
        inclination_deg=87.9,
        raan_spread=math.pi,
    )


def kuiper() -> Constellation:
    """Amazon Kuiper: 34 satellites x 34 planes at 630 km, 51.9 deg."""
    return Constellation(
        name="Kuiper",
        sats_per_plane=34,
        num_planes=34,
        altitude_km=630.0,
        inclination_deg=51.9,
    )


def iridium() -> Constellation:
    """Iridium: 11 satellites x 6 planes at 780 km, 86.4 deg (polar star)."""
    return Constellation(
        name="Iridium",
        sats_per_plane=11,
        num_planes=6,
        altitude_km=780.0,
        inclination_deg=86.4,
        raan_spread=math.pi,
        # Iridium serves down to ~8.2 degrees elevation; with only 66
        # satellites that mask is what makes coverage continuous.
        min_elevation_deg=8.2,
    )


#: The Table 1 line-up, in the order the paper's figures use.
TABLE1 = {
    "Starlink": starlink,
    "OneWeb": oneweb,
    "Kuiper": kuiper,
    "Iridium": iridium,
}


def by_name(name: str) -> Constellation:
    """Look up a Table 1 constellation by (case-insensitive) name."""
    for key, factory in TABLE1.items():
        if key.lower() == name.lower():
            return factory()
    raise KeyError(f"unknown constellation {name!r}; know {sorted(TABLE1)}")
