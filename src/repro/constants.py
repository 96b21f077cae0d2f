"""Physical and protocol constants used across the reproduction.

All distances are kilometres, all times seconds, all angles radians
unless a name says otherwise.  Values follow standard astrodynamics
references (WGS-84 / Vallado) and the SpaceCore paper (SIGCOMM 2022).
"""

import math

# ---------------------------------------------------------------------------
# Earth and astrodynamics
# ---------------------------------------------------------------------------

#: Mean Earth radius (km).  The paper's coverage/cell math uses a sphere.
EARTH_RADIUS_KM = 6371.0

#: Earth gravitational parameter GM (km^3/s^2).
EARTH_MU_KM3_S2 = 398600.4418

#: Earth rotation rate (rad/s), sidereal.
EARTH_ROTATION_RAD_S = 7.2921159e-5

#: Second zonal harmonic of the geopotential (oblateness).
EARTH_J2 = 1.08262668e-3

#: Fourth zonal harmonic of the geopotential.
EARTH_J4 = -1.61098761e-6

#: Speed of light in vacuum (km/s); ISL and radio propagation delay.
SPEED_OF_LIGHT_KM_S = 299792.458

#: Sidereal day (s).
SIDEREAL_DAY_S = 86164.0905

#: GEO altitude quoted by the paper (km).
GEO_ALTITUDE_KM = 35786.0

# ---------------------------------------------------------------------------
# Mobile-network timing constants from the paper
# ---------------------------------------------------------------------------

#: Mean interval between session establishments per active UE (s), §3.1,
#: citing [44]: "Session establishment is frequent for each UE (every
#: 106.9s)".
SESSION_INTERARRIVAL_S = 106.9

#: Inactivity timeout after which the RRC connection is released (s);
#: the paper quotes 10-15 s, we use the midpoint.
RRC_INACTIVITY_TIMEOUT_S = 12.5

#: Transient coverage time of one Starlink satellite over a fixed user (s),
#: §3.2: "each LEO satellite only has transient coverage (~165.8s in
#: Starlink)".
STARLINK_DWELL_S = 165.8

#: Registration delays measured on operational GEO terminals (s), §2.2.
INMARSAT_REGISTRATION_DELAY_S = 9.5
TIANTONG_REGISTRATION_DELAY_S = 13.5

#: 5G radio baseband processing deadline (s), §2.2 ("<10 ms").
BASEBAND_DEADLINE_S = 0.010

#: Fraction of Starlink satellites estimated to have failed (§1, §3.3).
STARLINK_FAILURE_FRACTION = 1.0 / 40.0

# ---------------------------------------------------------------------------
# NAS procedure guard timers and retry discipline (TS 24.501 analogues)
# ---------------------------------------------------------------------------

#: Registration guard timer T3510 (s): how long a UE waits for the
#: Registration Accept before retrying.
NAS_T3510_S = 15.0

#: PDU session establishment guard timer T3580 (s).
NAS_T3580_S = 16.0

#: Service request / handover guard timer T3517 (s).
NAS_T3517_S = 15.0

#: NAS retry counters expire after five attempts (the TS 24.501
#: "abort the procedure" threshold); we abandon after this many.
NAS_MAX_ATTEMPTS = 5

#: Base delay of the bounded exponential backoff between procedure
#: attempts (s); attempt k waits base * 2**k, capped below.
NAS_RETRY_BACKOFF_BASE_S = 2.0

#: Upper bound on a single backoff interval (s).
NAS_RETRY_BACKOFF_CAP_S = 30.0

#: Radio-link-failure detection delay (s): the gap between a serving
#: satellite dying and the UE declaring RLF and re-attaching (T310-ish).
RLF_DETECTION_S = 1.0

#: Per-wireless-hop message loss of the stateful baseline's home-routed
#: flows, outside and inside a jamming window.
PER_LINK_LOSS = 0.02
JAMMED_LINK_LOSS = 0.5

#: ISL hops a home-routed message crosses to reach the gateway.
GATEWAY_PATH_HOPS = 6.0

#: Satellite user-capacity sweep used throughout the evaluation (Fig. 10/20).
SATELLITE_CAPACITIES = (2_000, 10_000, 20_000, 30_000)

#: Users on the busiest satellite: the capacity of Table 4, Fig. 19 and
#: the state-footprint comparison.
SATELLITE_CAPACITY = 30_000

# ---------------------------------------------------------------------------
# Misc helpers
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0


def orbital_period_s(altitude_km: float) -> float:
    """Keplerian period of a circular orbit at ``altitude_km`` (s)."""
    a = EARTH_RADIUS_KM + altitude_km
    return TWO_PI * math.sqrt(a**3 / EARTH_MU_KM3_S2)


def mean_motion_rad_s(altitude_km: float) -> float:
    """Mean motion n = sqrt(mu/a^3) of a circular orbit (rad/s)."""
    a = EARTH_RADIUS_KM + altitude_km
    return math.sqrt(EARTH_MU_KM3_S2 / a**3)


def orbital_speed_km_s(altitude_km: float) -> float:
    """Circular orbital speed (km/s); Table 1 quotes 7.3-7.6 km/s."""
    a = EARTH_RADIUS_KM + altitude_km
    return math.sqrt(EARTH_MU_KM3_S2 / a)
