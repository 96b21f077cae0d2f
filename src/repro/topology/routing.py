"""Routing: Algorithm 1 stateless geospatial relaying + Dijkstra baseline.

Algorithm 1 (S4.2) forwards a packet using only (a) the satellite's own
runtime (alpha, gamma) coordinates and (b) the destination's geospatial
cell embedded in its address -- no routing tables, no per-flow state.
Each hop moves one grid step in whichever dimension (inter-orbit alpha
or intra-orbit gamma) has the larger remaining hop count, choosing the
shorter way around the ring (the ``m/2 * d-alpha`` conditions in the
paper's listing are exactly this ring-shortest test, which
``wrap_signed`` performs).

The Dijkstra router is the stateful baseline used to measure path
stretch; it needs a global topology snapshot per time step -- the kind
of state SpaceCore wants satellites not to carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..constants import HALF_PI, SPEED_OF_LIGHT_KM_S
from ..orbits.coordinates import (
    InclinedCoordinateSystem,
    central_angle,
    wrap_signed,
)
from ..orbits.coverage import coverage_half_angle
from ..orbits.snapshot import (
    ConstellationSnapshot,
    grid_neighbor_table,
    snapshot_for,
)
from .grid import GridTopology

#: Hop budget of the relay pipeline (Fig. 18b and every consumer that
#: routes across an orbital period).  Long detours on the large shells
#: can exceed the default 256-hop budget, so the scalar and batch
#: planes must share one constant: constructing one plane at 512 and
#: the other at its default silently halves the budget of whichever
#: plane the pipeline happens to route through (the parity bug this
#: constant fixes -- see tests/test_batch_routing.py).
RELAY_MAX_HOPS = 512

#: The destination contract of every routing entry point (the scalar
#: ``route``, ``route_batch``, ``route_sweep`` and everything layered
#: on them); violations raise ``ValueError`` before any routing.
DESTINATION_CONTRACT = ("destination lat/lon must be finite radians "
                        "with |lat| <= pi/2")

#: The source contract of the same entry points: a source satellite is
#: an integer flat index in ``[0, total_satellites)``.  Negative
#: indices must not wrap to the end of the snapshot arrays.
SOURCE_CONTRACT = ("source satellite index out of range: need an "
                   "integer in [0, total_satellites)")

#: The epoch contract of the same entry points: ``t`` is a finite
#: number of seconds (a NaN epoch would otherwise compare its way to
#: "delivered in 0 hops").
EPOCH_CONTRACT = "route epoch t must be finite seconds"

@dataclass
class RouteResult:
    """Outcome of routing one packet through the constellation."""

    delivered: bool
    path: List[int] = field(default_factory=list)
    delay_s: float = 0.0
    distance_km: float = 0.0
    degraded: bool = False  # delivered below the nominal elevation mask
    #: The walk left Algorithm 1's preferred direction at least once
    #: (centered-but-uncovered, dead preferred edge, node revisit).
    #: Diagnostic only: two results with equal fields are the same
    #: route however they were computed.
    deflected: bool = field(default=False, compare=False)

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)


class GeospatialRouter:
    """Stateless geospatial relaying (Algorithm 1).

    Every decision uses only local knowledge: the satellite's runtime
    coordinates (which self-calibrate orbit perturbations -- the J4
    experiment of Fig. 18b) and the destination coordinates derived
    from the packet's geospatial address.
    """

    def __init__(self, topology: GridTopology, max_hops: int = 256):
        self.topology = topology
        c = topology.constellation
        self._total = c.total_satellites
        self._delta_raan = c.delta_raan
        self._delta_phase = c.delta_phase
        self.system = InclinedCoordinateSystem(c.inclination_rad)
        self.coverage_angle = coverage_half_angle(c.altitude_km,
                                                  c.min_elevation_deg)
        #: Positive slack accepts delivery slightly outside the nominal
        #: footprint (serving at a lower elevation angle) instead of
        #: oscillating between two near-covering satellites.
        self.degraded_slack = 1.6
        self.max_hops = max_hops
        self._neighbors = grid_neighbor_table(c)

    # -- per-hop decision (the Algorithm 1 listing) ------------------------------

    def _snapshot(self, t: float) -> ConstellationSnapshot:
        """The cached epoch snapshot every per-hop read indexes into."""
        return snapshot_for(self.topology.propagator, t)

    def covers(self, sat: int, dest_lat: float, dest_lon: float,
               t: float) -> bool:
        """Line 1-2 of Algorithm 1: does this satellite cover D?"""
        return self._covers(self._snapshot(t), sat, dest_lat, dest_lon)

    # Per-hop reads go through ``ndarray.item()``, so the arithmetic
    # runs on Python floats: the same IEEE operations as on numpy
    # scalars (float64 ``%`` and float ``%`` are both fmod plus the
    # same sign fix), minus the numpy-scalar overhead.  ``.item()``
    # wraps negative indices like ``[]`` does, hence the source check
    # in ``route``.  There is deliberately no per-snapshot ``tolist()``
    # view: converting the arrays costs several routes, which callers
    # that alternate epochs would pay on every packet.

    def _covers(self, snap: ConstellationSnapshot, sat: int,
                dest_lat: float, dest_lon: float) -> bool:
        sub = snap.subpoints
        return (central_angle(sub.item(sat, 0), sub.item(sat, 1),
                              dest_lat, dest_lon)
                <= self.coverage_angle)

    def _hop_offsets_snap(self, snap: ConstellationSnapshot, sat: int,
                          dest_reps: Sequence[Tuple[float, float]]
                          ) -> Tuple[float, float]:
        alpha_s = snap.raan_ecef.item(sat)
        gamma_s = snap.arg_latitude.item(sat)
        best: Optional[Tuple[float, float]] = None
        best_metric = math.inf
        for alpha_d, gamma_d in dest_reps:
            da = wrap_signed(alpha_d - alpha_s) / self._delta_raan
            dg = wrap_signed(gamma_d - gamma_s) / self._delta_phase
            metric = abs(da) + abs(dg)
            if metric < best_metric:
                best_metric = metric
                best = (da, dg)
        assert best is not None
        return best

    def _preferred_column(self, snap: ConstellationSnapshot, sat: int,
                          dest_reps: Sequence[Tuple[float, float]]
                          ) -> Optional[int]:
        """Algorithm 1's direction as a ``grid_neighbor_table`` column
        (up, down, left, right), or None when ``sat`` is centred."""
        da, dg = self._hop_offsets_snap(snap, sat, dest_reps)
        if abs(da) < 0.5 and abs(dg) < 0.5:
            return None
        if abs(da) > abs(dg):
            return 3 if da > 0 else 2
        return 0 if dg > 0 else 1

    # -- end-to-end ---------------------------------------------------------------

    def route(self, src_sat: int, dest_lat: float, dest_lon: float,
              t: float,
              avoid_links: Optional[Set[FrozenSet[int]]] = None,
              *, walked: Optional[RouteResult] = None
              ) -> RouteResult:
        """Forward hop by hop from ``src_sat`` to the destination's cell.

        Failed satellites/ISLs deflect the packet: when the preferred
        direction is dead, the packet takes the live neighbour that
        minimises the remaining hop metric (and never revisits a node,
        bounding detours).  ``avoid_links`` marks extra links to treat
        as down -- e.g. links the packet layer found to be inside a
        Gilbert-Elliott loss burst -- so degraded links can be routed
        around without mutating the shared topology.  A source outside
        :data:`SOURCE_CONTRACT`, a destination outside
        :data:`DESTINATION_CONTRACT` or an epoch outside
        :data:`EPOCH_CONTRACT` raises ``ValueError``.

        ``walked`` continues a walk instead of starting one: a prefix
        of this very route (``path`` from ``src_sat``, with the
        ``delay_s`` / ``distance_km`` accumulated over it, and
        ``deflected`` if it deflected).  The walk resumes at the
        prefix's last node with the prefix's nodes visited and the
        remaining hop budget, so the result equals the from-scratch
        route bit for bit.  The batch plane passes the compiled walk's
        prefix of a packet it flagged.
        """
        if not (isinstance(src_sat, (int, np.integer))
                and 0 <= src_sat < self._total):
            raise ValueError(f"{SOURCE_CONTRACT}: got {src_sat!r}")
        if not (math.isfinite(dest_lon) and abs(dest_lat) <= HALF_PI):
            raise ValueError(
                f"{DESTINATION_CONTRACT}: got ({dest_lat!r}, {dest_lon!r})")
        if not math.isfinite(t):
            raise ValueError(f"{EPOCH_CONTRACT}: got {t!r}")
        src_sat = int(src_sat)
        if walked is None:
            walked = RouteResult(False, [src_sat])
        path = list(walked.path)
        if not path or path[0] != src_sat or len(path) - 1 > self.max_hops:
            raise ValueError("walked must be a prefix of this route: "
                             "a path from src_sat within max_hops")
        # One cached snapshot, one destination (alpha, gamma)
        # conversion and the fault epoch's edge mask serve every hop:
        # the compiled walk reads the same wiring, mask and lengths.
        snap = self._snapshot(t)
        dest_reps = self.system.both_representations(dest_lat, dest_lon)
        neighbors = self._neighbors
        edge_up = self.topology.edge_liveness()
        hop_km = snap.hop_lengths_km()
        delay = walked.delay_s
        distance = walked.distance_km
        deflected = walked.deflected
        visited = set(path)
        current = path[-1]
        for _ in range(self.max_hops - (len(path) - 1)):
            if self._covers(snap, current, dest_lat, dest_lon):
                return RouteResult(True, path, delay, distance,
                                   deflected=deflected)
            column = self._preferred_column(snap, current, dest_reps)
            if column is None:
                # Closest grid position, but the footprint misses D
                # (low elevation); deliver degraded rather than loop.
                if self._nearly_covers_snap(snap, current, dest_lat,
                                            dest_lon):
                    return RouteResult(True, path, delay, distance,
                                       degraded=True, deflected=deflected)
            else:
                preferred = neighbors.item(current, column)
                if (preferred in visited
                        or not edge_up.item(current, column)
                        or (avoid_links
                            and frozenset((current, preferred))
                            in avoid_links)):
                    column = None
            if column is None:
                deflected = True
                column = self._best_live_column(
                    snap, current, dest_reps, visited, avoid_links)
                if column is None:
                    return RouteResult(False, path, delay, distance,
                                       deflected=deflected)
            length = hop_km.item(current, column)
            delay += length / SPEED_OF_LIGHT_KM_S
            distance += length
            current = neighbors.item(current, column)
            path.append(current)
            visited.add(current)
        return RouteResult(False, path, delay, distance,
                           deflected=deflected)

    def _nearly_covers_snap(self, snap: ConstellationSnapshot, sat: int,
                            dest_lat: float, dest_lon: float) -> bool:
        sub = snap.subpoints
        return (central_angle(sub.item(sat, 0), sub.item(sat, 1),
                              dest_lat, dest_lon)
                <= self.coverage_angle * self.degraded_slack)

    def _best_live_column(self, snap: ConstellationSnapshot, sat: int,
                          dest_reps: Sequence[Tuple[float, float]],
                          visited: set,
                          avoid_links: Optional[Set[FrozenSet[int]]]
                          ) -> Optional[int]:
        """Greedy deflection: the column of the live unvisited
        neighbour nearest the goal (the first of equals), or None."""
        best = None
        best_metric = math.inf
        edge_up = self.topology.edge_liveness()
        for column in range(4):
            nbr = self._neighbors.item(sat, column)
            if not edge_up.item(sat, column) or nbr in visited:
                continue
            if avoid_links and frozenset((sat, nbr)) in avoid_links:
                continue
            da, dg = self._hop_offsets_snap(snap, nbr, dest_reps)
            metric = abs(da) + abs(dg)
            if metric < best_metric:
                best_metric = metric
                best = column
        return best


class DijkstraRouter:
    """Stateful shortest-path baseline over a topology snapshot.

    Every query builds :meth:`GridTopology.delay_adjacency` for its
    epoch and searches it with ``scipy.sparse.csgraph.dijkstra``.
    Nothing is cached, so there is no liveness to go stale under fault
    injection: a build is about 0.3 ms on Starlink and no caller asks
    twice at one ``(t, fault_epoch)``.
    """

    def __init__(self, topology: GridTopology):
        self.topology = topology

    def route(self, src_sat: int, dst_sat: int, t: float) -> RouteResult:
        """Shortest path between two satellites at ``t``."""
        return self.route_many([src_sat], [dst_sat], t)[0]

    def route_many(self, src_sats: Sequence[int],
                   dst_sats: Sequence[int], t: float) -> List[RouteResult]:
        """Shortest paths for ``(src, dst)`` satellite pairs in bulk.

        One multi-source ``csgraph.dijkstra`` run per unique source
        over the sparse +Grid adjacency; each pair's path is rebuilt
        from the predecessor matrix, so pairs sharing a source share
        the search.  Dead and out-of-range endpoints are undelivered.
        ``delay_s`` equals a textbook Dijkstra over ``snapshot_graph``
        bit for bit (same ``hop_lengths_km`` / c weights, summed
        source to destination); between routes tied in exact arithmetic
        the path, and with it the last ulp of ``distance_km``, may
        differ from another implementation's.
        """
        from scipy.sparse.csgraph import dijkstra
        srcs = [int(s) for s in src_sats]
        dsts = [int(d) for d in dst_sats]
        if len(srcs) != len(dsts):
            raise ValueError("src/dst sequences must have equal length")
        if not srcs:
            return []
        matrix = self.topology.delay_adjacency(t)
        neighbors = grid_neighbor_table(self.topology.constellation)
        hop_km = snapshot_for(self.topology.propagator, t).hop_lengths_km()
        total = matrix.shape[0]
        sat_up = self.topology.satellite_liveness()
        unique = sorted({s for s in srcs if 0 <= s < total})
        index_of = {s: k for k, s in enumerate(unique)}
        if unique:
            dist, pred = dijkstra(matrix, directed=True,
                                  indices=unique,
                                  return_predecessors=True)
        results: List[RouteResult] = []
        for s, d in zip(srcs, dsts):
            if (s not in index_of or not 0 <= d < total
                    or not (sat_up[s] and sat_up[d])):
                results.append(RouteResult(False))
                continue
            row = index_of[s]
            if not np.isfinite(dist[row, d]):
                results.append(RouteResult(False))
                continue
            path = [d]
            node = d
            while node != s:
                node = int(pred[row, node])
                path.append(node)
            path.reverse()
            distance = 0.0
            for a, b in zip(path, path[1:]):
                hops = hop_km[a][neighbors[a] == b]
                distance += float(hops[0])
            results.append(RouteResult(True, path,
                                       float(dist[row, d]), distance))
        return results
