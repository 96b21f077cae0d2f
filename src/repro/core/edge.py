"""Orbital edge computing on top of the stateless core (S2.2(3)).

One of the paper's value propositions: "Orbital edge needs space
networking (thus orbital core functions) for functionality", and
SpaceCore's stateless core "is also a necessary first step to simplify
the fault/attack tolerance for the orbital edge computing" (S4.3).

This extension module builds a content/compute service on the
substrate the reproduction already has:

* replicas of a service are placed on satellites currently covering
  the busiest population centres;
* requests route to the *nearest* replica with Algorithm 1 (the same
  stateless relaying that carries user traffic);
* when a replica's satellite fails, requests transparently fall over
  to the next-nearest replica -- no state to migrate, mirroring the
  SpaceCore recovery story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..constants import EARTH_RADIUS_KM
from ..geo.population import PopulationGrid
from ..orbits.coverage import footprint_radius_km, serving_satellite
from ..topology.grid import GridTopology
from ..topology.routing import GeospatialRouter, RouteResult


@dataclass(frozen=True)
class EdgeRequestResult:
    """Outcome of serving one edge request."""

    served: bool
    replica_sat: Optional[int]
    route: Optional[RouteResult]

    @property
    def latency_s(self) -> float:
        """One-way request latency (uplink leg excluded, equal for all)."""
        return self.route.delay_s if self.route else math.inf


class OrbitalEdgeService:
    """A replicated service living on satellites."""

    def __init__(self, topology: GridTopology):
        self.topology = topology
        self.router = GeospatialRouter(topology)
        self._replicas: set = set()
        self.requests_served = 0
        self.failovers = 0

    # -- placement ----------------------------------------------------------------

    def place_over_population(self, t: float) -> List[int]:
        """Place six replicas on satellites over the densest ground.

        Greedy anti-collocation: each new replica must not share a
        footprint with an already chosen one, so the set spreads over
        distinct population centres.
        """
        population = PopulationGrid()
        c = self.topology.constellation
        radius = footprint_radius_km(c.altitude_km, c.min_elevation_deg)
        subpoints = self.topology.propagator.subpoints(t)
        scored = []
        for sat in range(c.total_satellites):
            if not self.topology.is_up(sat):
                continue
            lat, lon = subpoints[sat]
            weight = population.users_in_footprint(float(lat),
                                                   float(lon), radius,
                                                   resolution=3)
            if weight > 0:
                scored.append((weight, sat))
        scored.sort(reverse=True)
        chosen: List[int] = []
        # Several footprints of separation: popularity alone would put
        # every replica over Asia; spacing forces continental spread.
        min_separation = 6.0 * radius / EARTH_RADIUS_KM
        from ..orbits.coordinates import central_angle
        for _, sat in scored:
            if len(chosen) >= 6:
                break
            lat, lon = subpoints[sat]
            if all(central_angle(float(lat), float(lon),
                                 float(subpoints[other][0]),
                                 float(subpoints[other][1]))
                   > min_separation for other in chosen):
                chosen.append(sat)
        self._replicas = set(chosen)
        return chosen

    # -- serving -----------------------------------------------------------------------

    def serve(self, user_lat: float, user_lon: float,
              t: float) -> EdgeRequestResult:
        """Serve one request from the nearest live replica.

        The user's serving satellite routes toward each candidate
        replica's current ground position; the shortest delivered
        route wins.  Dead-replica satellites are skipped -- that is
        the stateless failover.
        """
        src = serving_satellite(self.topology.propagator, t, user_lat,
                                user_lon)
        if src < 0:
            return EdgeRequestResult(False, None, None)
        live = [sat for sat in self._replicas
                if self.topology.is_up(sat)]
        if not live:
            return EdgeRequestResult(False, None, None)
        if len(live) < len(self._replicas):
            self.failovers += 1
        subpoints = self.topology.propagator.subpoints(t)
        best: Optional[Tuple[RouteResult, int]] = None
        for replica in live:
            lat, lon = subpoints[replica]
            route = self.router.route(src, float(lat), float(lon), t)
            if not route.delivered:
                continue
            if best is None or route.delay_s < best[0].delay_s:
                best = (route, replica)
        if best is None:
            return EdgeRequestResult(False, None, None)
        self.requests_served += 1
        return EdgeRequestResult(True, best[1], best[0])

    # -- comparison --------------------------------------------------------------------

    def ground_cdn_latency_s(self, user_lat: float, user_lon: float,
                             t: float) -> float:
        """Latency of the terrestrial-CDN alternative: the request
        must exit through a gateway and come back (a 60 ms gateway
        round trip, half of it on this leg)."""
        src = serving_satellite(self.topology.propagator, t, user_lat,
                                user_lon)
        if src < 0 or not self.topology.ground_stations:
            return math.inf
        best = math.inf
        for _, access in self.topology.gateway_access_satellites(t):
            lat, lon = self.topology.propagator.subpoints(t)[access]
            route = self.router.route(src, float(lat), float(lon), t)
            if route.delivered:
                best = min(best, route.delay_s + 0.060 / 2.0)
        return best
