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
        # Per-snapshot memo of ISL lengths: packets routed at the same
        # epoch traverse the same few hundred grid edges over and over.
        self._edge_snap: Optional[ConstellationSnapshot] = None
        self._edge_km: dict = {}

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

    def _hop_offsets(self, sat: int, dest_lat: float, dest_lon: float,
                     t: float) -> Tuple[float, float]:
        """Remaining (alpha, gamma) offsets in units of grid hops.

        Considers both torus representations of the destination and
        keeps the closer one, since a satellite on its descending arc
        covers the same ground as an ascending satellite of a mirrored
        plane.
        """
        return self._hop_offsets_snap(
            self._snapshot(t), sat,
            self.system.both_representations(dest_lat, dest_lon))

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

    def next_hop(self, sat: int, dest_lat: float, dest_lon: float,
                 t: float) -> Optional[int]:
        """Lines 3-10 of Algorithm 1: pick the forwarding direction.

        Returns the neighbour's flat index, or None when this satellite
        is already the best grid position (deliver here).
        """
        return self._next_hop_snap(
            self._snapshot(t), sat,
            self.system.both_representations(dest_lat, dest_lon))

    def _next_hop_snap(self, snap: ConstellationSnapshot, sat: int,
                       dest_reps: Sequence[Tuple[float, float]]
                       ) -> Optional[int]:
        da, dg = self._hop_offsets_snap(snap, sat, dest_reps)
        if abs(da) < 0.5 and abs(dg) < 0.5:
            return None
        up, down, left, right = self.topology.grid_neighbors(sat)
        if abs(da) > abs(dg):
            return right if da > 0 else left
        return up if dg > 0 else down

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
        topo = self.topology
        # One cached snapshot and one destination (alpha, gamma)
        # conversion serve every hop of this packet.
        snap = self._snapshot(t)
        dest_reps = self.system.both_representations(dest_lat, dest_lon)
        delay = walked.delay_s
        distance = walked.distance_km
        deflected = walked.deflected
        visited = set(path)
        current = path[-1]
        for _ in range(self.max_hops - (len(path) - 1)):
            if self._covers(snap, current, dest_lat, dest_lon):
                return RouteResult(True, path, delay, distance,
                                   deflected=deflected)
            preferred = self._next_hop_snap(snap, current, dest_reps)
            if preferred is None:
                # Closest grid position, but the footprint misses D
                # (low elevation); deliver degraded rather than loop.
                if self._nearly_covers_snap(snap, current, dest_lat,
                                            dest_lon):
                    return RouteResult(True, path, delay, distance,
                                       degraded=True, deflected=deflected)
                deflected = True
                preferred = self._best_live_neighbor_snap(
                    snap, current, dest_reps, visited, avoid_links)
            if (preferred is None or preferred in visited
                    or not topo.isl_up(current, preferred)
                    or (avoid_links
                        and frozenset((current, preferred))
                        in avoid_links)):
                deflected = True
                preferred = self._best_live_neighbor_snap(
                    snap, current, dest_reps, visited, avoid_links)
            if preferred is None:
                return RouteResult(False, path, delay, distance,
                                   deflected=deflected)
            hop_km = self._hop_km(snap, current, preferred)
            delay += hop_km / SPEED_OF_LIGHT_KM_S
            distance += hop_km
            current = preferred
            path.append(current)
            visited.add(current)
        return RouteResult(False, path, delay, distance,
                           deflected=deflected)

    def _hop_km(self, snap: ConstellationSnapshot, a: int, b: int) -> float:
        """Length of the a--b ISL at this epoch, memoised per snapshot."""
        if self._edge_snap is not snap:
            self._edge_snap = snap
            self._edge_km = {}
        key = (a, b) if a < b else (b, a)
        d = self._edge_km.get(key)
        if d is None:
            item = snap.positions_ecef.item
            dx = item(a, 0) - item(b, 0)
            dy = item(a, 1) - item(b, 1)
            dz = item(a, 2) - item(b, 2)
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            self._edge_km[key] = d
        return d

    def _nearly_covers_snap(self, snap: ConstellationSnapshot, sat: int,
                            dest_lat: float, dest_lon: float) -> bool:
        sub = snap.subpoints
        return (central_angle(sub.item(sat, 0), sub.item(sat, 1),
                              dest_lat, dest_lon)
                <= self.coverage_angle * self.degraded_slack)

    def _best_live_neighbor_snap(self, snap: ConstellationSnapshot,
                                 sat: int,
                                 dest_reps: Sequence[Tuple[float, float]],
                                 visited: set,
                                 avoid_links: Optional[
                                     Set[FrozenSet[int]]] = None
                                 ) -> Optional[int]:
        """Greedy deflection: live unvisited neighbour nearest the goal."""
        best = None
        best_metric = math.inf
        for nbr in self.topology.isl_neighbors(sat):
            if nbr in visited:
                continue
            if avoid_links and frozenset((sat, nbr)) in avoid_links:
                continue
            da, dg = self._hop_offsets_snap(snap, nbr, dest_reps)
            metric = abs(da) + abs(dg)
            if metric < best_metric:
                best_metric = metric
                best = nbr
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
        bit for bit (same ``chord_lengths_km`` / c weights, summed
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
        failed = self.topology.failed_satellites()
        unique = sorted({s for s in srcs if 0 <= s < total})
        index_of = {s: k for k, s in enumerate(unique)}
        if unique:
            dist, pred = dijkstra(matrix, directed=True,
                                  indices=unique,
                                  return_predecessors=True)
        results: List[RouteResult] = []
        for s, d in zip(srcs, dsts):
            if (s not in index_of or not 0 <= d < total
                    or s in failed or d in failed):
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


def path_stretch(geo: RouteResult, baseline: RouteResult) -> float:
    """Delay stretch of the stateless route over the stateful optimum."""
    if not (geo.delivered and baseline.delivered):
        raise ValueError("both routes must be delivered to compare")
    if baseline.delay_s == 0:
        return 1.0
    return geo.delay_s / baseline.delay_s
