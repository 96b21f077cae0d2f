"""Constellation-level traffic analysis: ISL utilisation and hotspots.

S3.1's space-terrestrial asymmetry is ultimately a *flow concentration*
phenomenon: when all traffic must exit through a handful of gateways,
the ISLs around gateway-access satellites saturate long before the
rest of the constellation carries anything.  This module computes
per-link and per-satellite carried load for a demand matrix, under
either routing policy:

* ``to_gateways`` -- the bent-pipe/legacy pattern: every satellite's
  demand flows to its nearest gateway;
* ``peer_to_peer`` -- the SpaceCore pattern: demand flows between
  population centres directly over ISLs (Algorithm 1 paths).

The gravity-model demand generator weights satellite pairs by the
population under their footprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..geo.population import PopulationGrid
from ..orbits.coverage import footprint_radius_km
from ..orbits.snapshot import snapshot_for
from .grid import GridTopology
from .routing import DijkstraRouter, GeospatialRouter

LinkKey = Tuple[int, int]


def _link_key(a: int, b: int) -> LinkKey:
    return (a, b) if a < b else (b, a)


@dataclass
class TrafficLoad:
    """Carried load per link and per satellite (units/s)."""

    link_load: Dict[LinkKey, float] = field(default_factory=dict)
    satellite_load: Dict[int, float] = field(default_factory=dict)
    undelivered: float = 0.0

    def add_path(self, path: Sequence[int], demand: float) -> None:
        """Charge one flow's demand along every node and link of a path."""
        for node in path:
            self.satellite_load[node] = self.satellite_load.get(
                node, 0.0) + demand
        for a, b in zip(path, path[1:]):
            key = _link_key(a, b)
            self.link_load[key] = self.link_load.get(key, 0.0) + demand

    # -- statistics ---------------------------------------------------------------

    def peak_to_mean_link_ratio(self) -> float:
        """The concentration metric: 1.0 is perfectly even."""
        if not self.link_load:
            return 0.0
        loads = list(self.link_load.values())
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 0.0

    def gini_coefficient(self) -> float:
        """Inequality of satellite loads (0 = even, ->1 = hotspots)."""
        loads = sorted(self.satellite_load.values())
        n = len(loads)
        if n == 0:
            return 0.0
        total = sum(loads)
        if total == 0:
            return 0.0
        cum = 0.0
        for i, value in enumerate(loads, start=1):
            cum += i * value
        return (2.0 * cum) / (n * total) - (n + 1.0) / n


def gravity_demand(topology: GridTopology, t: float,
                   population: Optional[PopulationGrid] = None,
                   top_satellites: int = 24,
                   total_demand: float = 1000.0
                   ) -> List[Tuple[int, int, float]]:
    """A gravity-model demand matrix between populated satellites.

    Picks the ``top_satellites`` satellites over the densest ground
    and generates pairwise demand proportional to the product of the
    populations beneath them.
    """
    population = population or PopulationGrid()
    c = topology.constellation
    radius = footprint_radius_km(c.altitude_km, c.min_elevation_deg)
    subpoints = snapshot_for(topology.propagator, t).subpoints
    weights = []
    for sat in range(c.total_satellites):
        lat, lon = subpoints[sat]
        weights.append((population.users_in_footprint(lat, lon, radius,
                                                      resolution=3),
                        sat))
    weights.sort(reverse=True)
    chosen = [(w, s) for w, s in weights[:top_satellites] if w > 0]
    if len(chosen) < 2:
        raise RuntimeError("not enough populated satellites for a "
                           "demand matrix")
    pair_weights = []
    for i, (wa, sa) in enumerate(chosen):
        for wb, sb in chosen[i + 1:]:
            pair_weights.append((sa, sb, wa * wb))
    scale = total_demand / sum(w for _, _, w in pair_weights)
    return [(a, b, w * scale) for a, b, w in pair_weights]


def load_to_gateways(topology: GridTopology, t: float,
                     demands: Sequence[Tuple[int, int, float]]
                     ) -> TrafficLoad:
    """Legacy pattern: all demand detours through nearest gateways.

    Each flow runs source -> gateway-access satellite (shortest path),
    then gateway -> gateway terrestrially, then access satellite ->
    destination.  The space segment carries both access legs.
    """
    if not topology.ground_stations:
        raise ValueError("gateway routing needs ground stations")
    access_sats = [sat for _, sat in topology.gateway_access_satellites(t)]
    if not access_sats:
        raise RuntimeError("no gateway has coverage at t")
    endpoints = sorted({sat for src, dst, _ in demands for sat in (src, dst)})
    routes = DijkstraRouter(topology).route_many(
        [endpoint for endpoint in endpoints for _ in access_sats],
        access_sats * len(endpoints), t)
    # Per endpoint, the gateway reached in the fewest hops (first wins).
    best_path = {}
    count = len(access_sats)
    for k, endpoint in enumerate(endpoints):
        reached = [route.path for route in routes[k * count:(k + 1) * count]
                   if route.delivered]
        best_path[endpoint] = min(reached, key=len, default=None)
    load = TrafficLoad()
    for src, dst, demand in demands:
        for endpoint in (src, dst):
            if best_path[endpoint] is None:
                load.undelivered += demand
            else:
                load.add_path(best_path[endpoint], demand)
    return load


def load_peer_to_peer(topology: GridTopology, t: float,
                      demands: Sequence[Tuple[int, int, float]],
                      router: Optional[GeospatialRouter] = None
                      ) -> TrafficLoad:
    """SpaceCore pattern: demand rides Algorithm 1 paths end to end."""
    router = router or GeospatialRouter(topology)
    subpoints = snapshot_for(topology.propagator, t).subpoints
    load = TrafficLoad()
    for src, dst, demand in demands:
        dest_lat, dest_lon = subpoints[dst]
        result = router.route(src, float(dest_lat), float(dest_lon), t)
        if result.delivered:
            load.add_path(result.path, demand)
        else:
            load.undelivered += demand
    return load


@dataclass(frozen=True)
class ConcentrationComparison:
    """Gateway-routed vs peer-to-peer concentration metrics."""

    gateway_peak_to_mean: float
    peer_peak_to_mean: float
    gateway_gini: float
    peer_gini: float


def compare_concentration(topology: GridTopology, t: float = 0.0,
                          top_satellites: int = 16
                          ) -> ConcentrationComparison:
    """Run both patterns on the same gravity demand and compare."""
    demands = gravity_demand(topology, t,
                             top_satellites=top_satellites)
    gateway = load_to_gateways(topology, t, demands)
    peer = load_peer_to_peer(topology, t, demands)
    return ConcentrationComparison(
        gateway_peak_to_mean=gateway.peak_to_mean_link_ratio(),
        peer_peak_to_mean=peer.peak_to_mean_link_ratio(),
        gateway_gini=gateway.gini_coefficient(),
        peer_gini=peer.gini_coefficient(),
    )
