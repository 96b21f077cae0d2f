"""Epoch-keyed constellation snapshots and batch geometry kernels.

Every evaluation in the paper reduces to two geometry questions asked
millions of times -- "which satellite serves this ground point at time
``t``" and "what are this satellite's runtime (alpha, gamma)
coordinates" -- across UEs, hops and timesteps.  Asking them one at a
time forces an O(N_sats) recomputation per query.  This module
amortises the cost the way LRSIM snapshots topology per epoch: all
per-``(propagator, t)`` geometry is materialised **once** into an
immutable :class:`ConstellationSnapshot` of vectorised arrays, kept in
a small LRU cache, and every hot caller (coverage, Algorithm 1 routing,
traffic/attack sweeps) does indexed reads or single numpy broadcasts
against it.

Two query tiers are exposed:

* **per-epoch, bit-compatible** -- :meth:`ConstellationSnapshot.
  central_angles`, :meth:`serving_satellite`, :meth:`visible_satellites`
  and the batch (M users x N sats) variants replicate the pre-snapshot
  haversine element-for-element, so single-epoch answers are
  bit-identical to the scalar code they replace;
* **time-grid kernel** -- :func:`serving_over_times` evaluates a
  whole (T times x N sats) sweep with only O(T + N) trigonometric
  evaluations, using the angle-addition decomposition of the
  circular-orbit motion (all time dependence enters through per-plane
  phase terms, so the (T, N) part of the computation is pure
  multiply-add).

Failure injection never touches these arrays: a snapshot is pure
geometry, valid no matter which satellites or ISLs are currently
marked dead, which is what lets routing under faults share the cache.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..constants import EARTH_ROTATION_RAD_S, TWO_PI
from .constellation import Constellation
from .propagator import IdealPropagator

__all__ = [
    "ConstellationSnapshot",
    "snapshot_for",
    "clear_snapshot_cache",
    "snapshot_cache_info",
    "serving_satellites",
    "central_angles",
    "serving_over_times",
    "grid_neighbor_table",
    "chord_lengths_km",
]

#: Maximum number of cached snapshots; one Starlink-shell snapshot
#: holds 88,704 B of arrays plus 50,688 B of cached hop lengths, about
#: 136 KB, so the cache tops out near 17 MiB.
SNAPSHOT_CACHE_SIZE = 128


def _cap_angle(constellation: Constellation) -> float:
    """Coverage half angle at the constellation's elevation mask."""
    from .coverage import coverage_half_angle
    return coverage_half_angle(constellation.altitude_km,
                               constellation.min_elevation_deg)


def _wrap_array(angles: np.ndarray) -> np.ndarray:
    """Vectorised :func:`repro.orbits.coordinates.wrap_angle`.

    Mirrors the scalar guard against the floating-point corner where a
    tiny negative input maps to exactly ``2*pi`` under the modulo.
    """
    wrapped = angles % TWO_PI
    wrapped[wrapped >= TWO_PI] = 0.0
    return wrapped


class ConstellationSnapshot:
    """Immutable vectorised geometry of one constellation at one epoch.

    Arrays (all indexed by flat satellite index):

    * ``positions_ecef`` -- ``(N, 3)`` Earth-fixed Cartesian km;
    * ``subpoints`` -- ``(N, 2)`` sub-satellite (lat, lon) radians;
    * ``raan_ecef`` -- ``(N,)`` Earth-fixed ascending-node longitude
      (the runtime ``alpha_s`` of S4.1);
    * ``arg_latitude`` -- ``(N,)`` argument of latitude (the runtime
      ``gamma_s``).

    ``raan_ecef``/``arg_latitude`` mirror :meth:`OrbitState` scalar
    arithmetic operation-for-operation, and ``positions_ecef``/
    ``subpoints`` delegate to the propagator's vectorised methods, so
    both the coverage path and the Algorithm 1 runtime-coordinate path
    read exactly the numbers the scalar code produced.
    """

    __slots__ = ("propagator", "constellation", "t", "positions_ecef",
                 "subpoints", "raan_ecef", "arg_latitude", "_hop_km")

    def __init__(self, propagator: IdealPropagator, t: float):
        self.propagator = propagator
        c = propagator.constellation
        self.constellation = c
        self.t = float(t)

        planes = np.repeat(np.arange(c.num_planes), c.sats_per_plane)
        slots = np.tile(np.arange(c.sats_per_plane), c.num_planes)
        # Mirrors Constellation.raan_of_plane + wrap_angle in
        # IdealPropagator.state.
        raan = _wrap_array(planes * c.delta_raan
                           + propagator.raan_rate() * self.t)
        # Mirrors Constellation.phase_of_slot (modulo *before* adding
        # the rate term, exactly like the scalar path).
        phase0 = (slots * c.delta_phase
                  + TWO_PI * c.phasing_factor * planes
                  / c.total_satellites) % TWO_PI
        self.arg_latitude = _wrap_array(
            phase0 + propagator.arg_latitude_rate() * self.t)
        self.raan_ecef = _wrap_array(raan - EARTH_ROTATION_RAD_S * self.t)

        self.positions_ecef = propagator.positions_ecef(self.t)
        pos = self.positions_ecef
        hyp = np.hypot(pos[:, 0], pos[:, 1])
        lat = np.arctan2(pos[:, 2], hyp)
        lon = np.arctan2(pos[:, 1], pos[:, 0])
        self.subpoints = np.stack([lat, lon], axis=1)

        for arr in (self.positions_ecef, self.subpoints,
                    self.raan_ecef, self.arg_latitude):
            arr.setflags(write=False)
        self._hop_km: Optional[np.ndarray] = None

    # -- single ground point -------------------------------------------------

    def central_angles(self, lat: float, lon: float) -> np.ndarray:
        """Central angle from every satellite's subpoint to a ground
        point, shape ``(N,)`` radians (one haversine broadcast)."""
        subs = self.subpoints
        dlat = subs[:, 0] - lat
        dlon = subs[:, 1] - lon
        h = (np.sin(dlat / 2.0) ** 2
             + np.cos(subs[:, 0]) * math.cos(lat)
             * np.sin(dlon / 2.0) ** 2)
        return 2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))

    def visible_satellites(self, lat: float, lon: float) -> np.ndarray:
        """Flat indices of every satellite covering ``(lat, lon)``."""
        theta = _cap_angle(self.constellation)
        return np.nonzero(self.central_angles(lat, lon) <= theta)[0]

    def serving_satellite(self, lat: float, lon: float) -> int:
        """Closest covering satellite, or -1 when none covers."""
        theta = _cap_angle(self.constellation)
        ang = self.central_angles(lat, lon)
        best = int(np.argmin(ang))
        if ang[best] > theta:
            return -1
        return best

    # -- batch of ground points (M users x N satellites) ---------------------

    def serving_satellites(self, lats: np.ndarray,
                           lons: np.ndarray) -> np.ndarray:
        """Serving satellite per user, shape ``(M,)`` (-1 = uncovered),
        from one ``(M, N)`` haversine broadcast."""
        theta = _cap_angle(self.constellation)
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        subs = self.subpoints
        dlat = subs[None, :, 0] - lats[:, None]
        dlon = subs[None, :, 1] - lons[:, None]
        h = (np.sin(dlat / 2.0) ** 2
             + np.cos(subs[None, :, 0]) * np.cos(lats)[:, None]
             * np.sin(dlon / 2.0) ** 2)
        ang = 2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
        best = np.argmin(ang, axis=1)
        covered = ang[np.arange(ang.shape[0]), best] <= theta
        return np.where(covered, best, -1)

    # -- +Grid edge geometry -------------------------------------------------

    def hop_lengths_km(self) -> np.ndarray:
        """ISL length to each +Grid neighbour, shape ``(N, 4)`` km.

        Column ``j`` pairs with column ``j`` of
        :func:`grid_neighbor_table` (up, down, left, right).  Built
        lazily, cached on the snapshot (pure geometry -- never depends
        on liveness).
        """
        if self._hop_km is None:
            nbr = grid_neighbor_table(self.constellation)
            hop = chord_lengths_km(self.positions_ecef,
                                   np.arange(len(nbr))[:, None], nbr)
            hop.setflags(write=False)
            self._hop_km = hop
        return self._hop_km


def chord_lengths_km(positions: np.ndarray, a: np.ndarray,
                     b: np.ndarray) -> np.ndarray:
    """Straight-line km between ``positions[a]`` and ``positions[b]``.

    ``a``/``b`` are broadcastable satellite index arrays.  Each element
    is ``sqrt(dx*dx + dy*dy + dz*dz)`` in that order.  The formula
    behind :meth:`ConstellationSnapshot.hop_lengths_km`, the one ISL
    length both routing walks, the CSR and the graph read.
    """
    px, py, pz = positions[:, 0], positions[:, 1], positions[:, 2]
    dx = px[a] - px[b]
    dy = py[a] - py[b]
    dz = pz[a] - pz[b]
    return np.sqrt(dx * dx + dy * dy + dz * dz)


# ---------------------------------------------------------------------------
# The +Grid neighbour table (pure wiring, constellation-shape keyed)
# ---------------------------------------------------------------------------

#: Direction-name -> column index of :func:`grid_neighbor_table`.
GRID_DIRECTIONS: Tuple[str, str, str, str] = ("up", "down", "left", "right")


def grid_neighbor_table(constellation: Constellation) -> np.ndarray:
    """The +Grid wiring as an ``(N, 4)`` int32 table.

    Columns are ``(up, down, left, right)`` in the Algorithm 1
    direction order (:data:`GRID_DIRECTIONS`), matching
    ``GridTopology.directional_neighbors`` element-for-element:
    up/down are the intra-plane ring, left/right the adjacent planes.
    The wiring depends only on the grid shape ``(num_planes,
    sats_per_plane)``, so tables are memoised per shape.
    """
    return _grid_wiring(constellation.num_planes,
                        constellation.sats_per_plane)


@functools.lru_cache(maxsize=16)
def _grid_wiring(num_planes: int, sats_per_plane: int) -> np.ndarray:
    planes = np.repeat(np.arange(num_planes), sats_per_plane)
    slots = np.tile(np.arange(sats_per_plane), num_planes)
    base = planes * sats_per_plane
    table = np.empty((num_planes * sats_per_plane, 4), dtype=np.int32)
    table[:, 0] = base + (slots + 1) % sats_per_plane           # up
    table[:, 1] = base + (slots - 1) % sats_per_plane           # down
    table[:, 2] = ((planes - 1) % num_planes) * sats_per_plane + slots
    table[:, 3] = ((planes + 1) % num_planes) * sats_per_plane + slots
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# The epoch-keyed LRU cache
# ---------------------------------------------------------------------------

_cache: "OrderedDict[Tuple[int, float], ConstellationSnapshot]" = OrderedDict()
_hits = 0
_misses = 0


def snapshot_for(propagator: IdealPropagator,
                 t: float) -> ConstellationSnapshot:
    """The (cached) snapshot of ``propagator``'s constellation at ``t``.

    Keyed by ``(id(propagator), t)``; the propagator identity check on
    hits guards against ``id()`` reuse after garbage collection.
    Geometry depends only on the propagator and the epoch -- never on
    failure injection -- so the cache needs no invalidation hooks.
    """
    global _hits, _misses
    key = (id(propagator), float(t))
    snap = _cache.get(key)
    if snap is not None and snap.propagator is propagator:
        _cache.move_to_end(key)
        _hits += 1
        return snap
    snap = ConstellationSnapshot(propagator, t)
    _cache[key] = snap
    _cache.move_to_end(key)
    while len(_cache) > SNAPSHOT_CACHE_SIZE:
        _cache.popitem(last=False)
    _misses += 1
    return snap


def clear_snapshot_cache() -> None:
    """Drop every cached snapshot (mainly for tests and benchmarks)."""
    global _hits, _misses
    _cache.clear()
    _hits = 0
    _misses = 0


def snapshot_cache_info() -> Tuple[int, int, int]:
    """``(hits, misses, current_size)`` of the snapshot cache."""
    return _hits, _misses, len(_cache)


# ---------------------------------------------------------------------------
# Time-grid kernels (T timesteps x N satellites in one pass)
# ---------------------------------------------------------------------------

def _cos_angles_over_times(propagator: IdealPropagator,
                           times: Sequence[float],
                           lat: float, lon: float) -> np.ndarray:
    """``cos(central angle)`` between every satellite and a ground
    point over a time grid, shape ``(T, N)``.

    The central angle between a subpoint and the ground point equals
    the angle between the satellite's position vector and the ground
    point's radial (spherical Earth), so ``cos(angle)`` is a dot
    product of unit vectors -- no per-(t, sat) trigonometry.  With
    circular orbits the Earth-fixed node longitude is
    ``o(t) = o0[plane] + (raan_rate - earth_rate) * t`` and the phase
    is ``u(t) = u0[sat] + u_rate * t``, so angle-addition folds all
    time dependence into per-plane coefficients::

        cos(angle)[t, n] = cos(u0[n]) * C[t, plane(n)]
                         + sin(u0[n]) * D[t, plane(n)]

    leaving the (T, N) stage as two multiplies and one add.
    """
    c = propagator.constellation
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        return np.zeros((0, c.total_satellites))

    # Ground-point unit radial.
    cos_lat = math.cos(lat)
    wx = cos_lat * math.cos(lon)
    wy = cos_lat * math.sin(lon)
    wz = math.sin(lat)

    # Per-plane Earth-fixed node longitude over the grid.
    o0 = np.arange(c.num_planes) * c.delta_raan
    o_rate = propagator.raan_rate() - EARTH_ROTATION_RAD_S
    cot = np.cos(o_rate * t)[:, None]
    sot = np.sin(o_rate * t)[:, None]
    co0, so0 = np.cos(o0)[None, :], np.sin(o0)[None, :]
    cos_o = cot * co0 - sot * so0                       # (T, P)
    sin_o = sot * co0 + cot * so0

    cos_i = math.cos(c.inclination_rad)
    sin_i = math.sin(c.inclination_rad)
    # dot/r = cos(u) * P + sin(u) * Q with plane-level P, Q.
    p_term = wx * cos_o + wy * sin_o                    # (T, P)
    q_term = cos_i * (wy * cos_o - wx * sin_o) + wz * sin_i

    u_rate = propagator.arg_latitude_rate()
    ct = np.cos(u_rate * t)[:, None]
    st = np.sin(u_rate * t)[:, None]
    c_coef = p_term * ct + q_term * st                  # (T, P)
    d_coef = q_term * ct - p_term * st

    # Epoch phases laid out (plane, slot) so the (T, N) stage is a
    # single broadcast over the plane axis -- no gather copies.
    slots = np.arange(c.sats_per_plane)[None, :]
    planes = np.arange(c.num_planes)[:, None]
    u0 = (slots * c.delta_phase
          + TWO_PI * c.phasing_factor * planes / c.total_satellites)
    cu0, su0 = np.cos(u0), np.sin(u0)                   # (P, n)

    dots = (c_coef[:, :, None] * cu0[None, :, :]
            + d_coef[:, :, None] * su0[None, :, :])     # (T, P, n)
    return dots.reshape(t.size, c.total_satellites)


def serving_over_times(propagator: IdealPropagator,
                       times: Sequence[float], lat: float, lon: float
                       ) -> np.ndarray:
    """Serving satellite (or -1) at each sampled time, shape ``(T,)``.

    The vectorised core of the moving-service-area sweeps.
    """
    theta = _cap_angle(propagator.constellation)
    dots = _cos_angles_over_times(propagator, times, lat, lon)
    if dots.shape[0] == 0:
        return np.zeros(0, dtype=int)
    best = np.argmax(dots, axis=1)
    covered = dots[np.arange(dots.shape[0]), best] >= math.cos(theta)
    return np.where(covered, best, -1)


def sample_times(t_start: float, t_end: float,
                 step_s: float) -> List[float]:
    """The exact time sequence a ``while t <= t_end: t += step`` loop
    visits, so vectorised sweeps reproduce scalar sampling bit-for-bit
    (repeated float addition is not ``arange``)."""
    times: List[float] = []
    t = t_start
    while t <= t_end:
        times.append(t)
        t += step_s
    return times
