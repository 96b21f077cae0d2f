"""Coordinate systems: ECI, ECEF, geodetic, and the paper's (alpha, gamma).

The SpaceCore paper (S4.1, Fig. 15a) defines an *affine spherical
coordinate system* per constellation: every terrestrial point is
identified by ``(alpha, gamma)`` where

* ``alpha`` locates the ascending node (on the Equator) of the unique
  *ascending* great circle with the constellation's inclination that
  passes through the point, and
* ``gamma`` is the angular distance from that node to the point, along
  the great circle ("generalized inclined latitude").

The satellites of a uniform constellation form a rigid torus in
``(alpha, gamma)`` space: planes sit ``delta_raan`` apart in alpha and
slots ``delta_phase`` apart in gamma, which is exactly what makes the
stateless geospatial relaying of Algorithm 1 work.

All functions use a spherical Earth (the paper does too).
"""

from __future__ import annotations

import math
from typing import Tuple

from ..constants import EARTH_ROTATION_RAD_S, TWO_PI

Vec3 = Tuple[float, float, float]


# ---------------------------------------------------------------------------
# Basic frames
# ---------------------------------------------------------------------------

def wrap_angle(angle: float) -> float:
    """Wrap an angle to ``[0, 2*pi)``.

    Guards against the floating-point corner where a tiny negative
    input maps to exactly ``2*pi`` under Python's modulo.
    """
    wrapped = angle % TWO_PI
    if wrapped >= TWO_PI:
        wrapped = 0.0
    return wrapped


def wrap_signed(angle: float) -> float:
    """Wrap an angle to ``(-pi, pi]`` (shortest signed difference)."""
    wrapped = angle % TWO_PI
    if wrapped > math.pi:
        wrapped -= TWO_PI
    return wrapped


def orbital_to_eci(raan: float, inclination: float, arg_latitude: float,
                   radius: float) -> Vec3:
    """Position of a circular-orbit satellite in the inertial frame.

    Standard rotation of the in-plane position by inclination and RAAN.
    """
    cos_u, sin_u = math.cos(arg_latitude), math.sin(arg_latitude)
    cos_i, sin_i = math.cos(inclination), math.sin(inclination)
    cos_o, sin_o = math.cos(raan), math.sin(raan)
    x = radius * (cos_o * cos_u - sin_o * sin_u * cos_i)
    y = radius * (sin_o * cos_u + cos_o * sin_u * cos_i)
    z = radius * (sin_u * sin_i)
    return (x, y, z)


def eci_to_ecef(position: Vec3, t: float) -> Vec3:
    """Rotate an inertial position into the Earth-fixed frame at time t.

    The frames are aligned at ``t = 0``; the Earth rotates eastward at
    the sidereal rate.
    """
    theta = EARTH_ROTATION_RAD_S * t
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    x, y, z = position
    return (cos_t * x + sin_t * y, -sin_t * x + cos_t * y, z)


def ecef_to_geodetic(position: Vec3) -> Tuple[float, float]:
    """Earth-fixed Cartesian -> (latitude, longitude) in radians.

    Spherical Earth: latitude is geocentric.
    """
    x, y, z = position
    hyp = math.hypot(x, y)
    lat = math.atan2(z, hyp)
    lon = math.atan2(y, x)
    return lat, lon


def central_angle(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Central angle between two points on the sphere (haversine form)."""
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = (math.sin(dlat / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2)
    h = min(1.0, max(0.0, h))
    return 2.0 * math.asin(math.sqrt(h))


# ---------------------------------------------------------------------------
# The (alpha, gamma) inclined spherical system (Fig. 15a)
# ---------------------------------------------------------------------------

class InclinedCoordinateSystem:
    """The paper's affine spherical coordinate system for one constellation.

    ``alpha`` is the Earth-fixed longitude of the ascending node of the
    inclined great circle through a point; ``gamma`` is the argument of
    latitude along that circle.  Instantiated with the constellation's
    inclination; the system is frozen at constellation initialisation
    (t = 0), which is what makes cells stable under satellite motion and
    resilient to later orbit perturbation (S4.1, Step 1).
    """

    def __init__(self, inclination_rad: float):
        if not 0.0 < inclination_rad <= math.pi:
            raise ValueError("inclination must be in (0, pi]")
        self.inclination = inclination_rad
        self._sin_i = math.sin(inclination_rad)
        self._cos_i = math.cos(inclination_rad)

    # -- forward mapping -----------------------------------------------------

    def from_geodetic(self, lat: float, lon: float) -> Tuple[float, float]:
        """Map (lat, lon) radians to ``(alpha, gamma)``.

        Latitudes beyond the inclination band are clamped to the band
        edge: those polar caps are outside every satellite's ground
        track, so the nearest covered cell serves them (the paper's
        near-polar constellations make the band almost global).

        Returns ``alpha`` in ``[0, 2*pi)`` and ``gamma`` in
        ``[-pi/2, pi/2]`` (the ascending branch).
        """
        band = min(self.inclination, math.pi - self.inclination)
        clamped = max(-band, min(band, lat))
        sin_ratio = math.sin(clamped) / self._sin_i
        sin_ratio = max(-1.0, min(1.0, sin_ratio))
        gamma = math.asin(sin_ratio)
        # Longitude offset from the ascending node to the point, along
        # the inclined circle: dlon = atan2(cos(i) sin(g), cos(g)).
        dlon = math.atan2(self._cos_i * math.sin(gamma), math.cos(gamma))
        alpha = wrap_angle(lon - dlon)
        return alpha, gamma

    def to_geodetic(self, alpha: float, gamma: float) -> Tuple[float, float]:
        """Inverse mapping: ``(alpha, gamma)`` -> (lat, lon) radians.

        Accepts any ``gamma``; points on the descending branch
        (``|gamma| > pi/2``) land at the mirrored longitude.
        """
        lat = math.asin(self._sin_i * math.sin(gamma))
        dlon = math.atan2(self._cos_i * math.sin(gamma), math.cos(gamma))
        lon = wrap_signed(alpha + dlon)
        return lat, lon

    # -- ascending and descending branches -----------------------------------

    def both_representations(self, lat: float, lon: float):
        """Both torus representations of a ground point.

        Every point inside the inclination band lies on exactly two
        inclined great circles: one crossing it while ascending
        (``gamma`` in ``[-pi/2, pi/2]``, see :meth:`from_geodetic`) and
        one while descending (``gamma = pi - gamma_asc``, in
        ``[pi/2, 3*pi/2]``).  Both matter to routing: a satellite on
        the descending half of its orbit covers the point too.  The
        descending ``alpha`` is ``from_geodetic``'s node offset taken
        at the descending ``gamma``.

        Returns ``[(alpha_asc, gamma_asc), (alpha_desc, gamma_desc)]``.
        """
        ascending = self.from_geodetic(lat, lon)
        gamma = math.pi - ascending[1]
        dlon = math.atan2(self._cos_i * math.sin(gamma), math.cos(gamma))
        return [ascending, (wrap_angle(lon - dlon), gamma)]
