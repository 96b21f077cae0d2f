"""Satellite network substrate: +Grid topology, links, routing."""

from .grid import GridTopology
from .links import propagation_delay_s
from .routing import DijkstraRouter, GeospatialRouter, RouteResult
from .traffic import (
    ConcentrationComparison,
    TrafficLoad,
    compare_concentration,
    gravity_demand,
    load_peer_to_peer,
    load_to_gateways,
)

__all__ = [
    "GridTopology",
    "propagation_delay_s",
    "DijkstraRouter",
    "GeospatialRouter",
    "RouteResult",
    "ConcentrationComparison",
    "TrafficLoad",
    "compare_concentration",
    "gravity_demand",
    "load_peer_to_peer",
    "load_to_gateways",
]
