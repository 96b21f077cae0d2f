"""Satellite network substrate: +Grid topology, links, routing."""

from .grid import GridTopology
from .links import Link, LinkBudget, line_of_sight_clear, propagation_delay_s
from .routing import DijkstraRouter, GeospatialRouter, RouteResult, path_stretch
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
    "Link",
    "LinkBudget",
    "line_of_sight_clear",
    "propagation_delay_s",
    "DijkstraRouter",
    "GeospatialRouter",
    "RouteResult",
    "path_stretch",
    "ConcentrationComparison",
    "TrafficLoad",
    "compare_concentration",
    "gravity_demand",
    "load_peer_to_peer",
    "load_to_gateways",
]
