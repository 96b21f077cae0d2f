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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..constants import SPEED_OF_LIGHT_KM_S, TWO_PI
from ..orbits.coordinates import InclinedCoordinateSystem
from ..orbits.coverage import coverage_half_angle
from ..orbits.snapshot import grid_neighbor_table
from .grid import GridTopology, check_epoch, check_ground_point, is_index

#: Hop budget of the relay pipeline (Fig. 18b and every consumer that
#: routes across an orbital period).  Long detours on the large shells
#: can exceed the default 256-hop budget, so the scalar and batch
#: planes must share one constant: constructing one plane at 512 and
#: the other at its default silently halves the budget of whichever
#: plane the pipeline happens to route through (the parity bug this
#: constant fixes -- see tests/test_batch_routing.py).
RELAY_MAX_HOPS = 512

#: The source contract of every routing entry point: a source satellite
#: is an integer flat index in ``[0, total_satellites)``.  Negative
#: indices must not wrap to the end of the snapshot arrays.
SOURCE_CONTRACT = ("source satellite index out of range: need an "
                   "integer in [0, total_satellites)")


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

    # -- end-to-end ---------------------------------------------------------------

    def route(self, src_sat: int, dest_lat: float, dest_lon: float,
              t: float, *, walked: Optional[RouteResult] = None
              ) -> RouteResult:
        """Forward hop by hop from ``src_sat`` to the destination's cell.

        Failed satellites/ISLs deflect the packet: when the preferred
        direction is dead, the packet takes the live neighbour that
        minimises the remaining hop metric (and never revisits a node,
        bounding detours).  A source outside
        :data:`SOURCE_CONTRACT`, a destination outside
        :data:`DESTINATION_CONTRACT` or an epoch outside
        :data:`EPOCH_CONTRACT` raises ``ValueError``.

        ``walked`` makes the call one *turn* of the walk instead of
        the whole of it: ``walked`` is a prefix of this very route
        (``path`` from ``src_sat``, with the ``delay_s`` /
        ``distance_km`` accumulated over it, and ``deflected`` if it
        deflected), and the walk resumes at its last node with its
        nodes visited and the remaining hop budget.  A turn takes the
        next hop, whichever it is, and then every hop that leaves
        Algorithm 1's preferred direction.  It returns the verdict
        (delivery, a drop with no live unvisited neighbour, or
        ``max_hops`` spent), or, undelivered, the prefix that ends
        just before the next preferred-direction hop: a node that is
        not covered, not centred on the destination, and whose
        preferred neighbour is live and unvisited.  Each turn's
        result is the next turn's ``walked``, so a chain of turns from
        any prefix equals the whole route bit for bit.  The batch
        plane hands the packets the compiled walk flags over this way:
        the reference walk takes the run of deflection hops, and the
        compiled walk the preferred-direction hops between runs.
        """
        if not (is_index(src_sat) and 0 <= src_sat < self._total):
            raise ValueError(f"{SOURCE_CONTRACT}: got {src_sat!r}")
        check_ground_point(dest_lat, dest_lon)
        state = self.topology.state(t)
        src_sat = int(src_sat)
        max_hops = self.max_hops
        turn = walked is not None
        if walked is None:
            walked = RouteResult(False, [src_sat])
        path = list(walked.path)
        if not path or path[0] != src_sat or len(path) - 1 > max_hops:
            raise ValueError("walked must be a prefix of this route: "
                             "a path from src_sat within max_hops")
        # A turn hands back at the first preferred-direction hop after
        # its own first hop; a whole walk never does.
        hand_back = len(path) + 1 if turn else max_hops + 2
        # The epoch's state and one destination (alpha, gamma)
        # conversion serve every hop: the compiled walk reads the same
        # wiring, edge mask and lengths.
        # Every per-hop read is a bound ``ndarray.item``, so the
        # arithmetic runs on Python floats: the same IEEE operations
        # as on numpy scalars (float64 ``%`` and float ``%`` are both
        # fmod plus the same sign fix).  ``.item()`` wraps negative
        # indices like ``[]`` does, hence the source check above.
        # There are no per-snapshot ``tolist()`` views: ``wave-churn``
        # routes 100 fresh snapshots, and a list view of each would
        # raise its peak RSS for what a bound ``.item`` already saves.
        snap = state.snapshot
        sub, raan, arg_lat, edge_up, hop_km = (
            snap.subpoints.item, snap.raan_ecef.item, snap.arg_latitude.item,
            state.edge_up.item, snap.hop_lengths_km().item)
        (alpha_a, gamma_a), (alpha_d, gamma_d) = (
            self.system.both_representations(dest_lat, dest_lon))
        wiring = self._neighbors.item
        d_raan = self._delta_raan
        d_phase = self._delta_phase
        cos_dest = math.cos(dest_lat)
        coverage = self.coverage_angle
        nearly = coverage * self.degraded_slack
        sin, cos, asin, sqrt = math.sin, math.cos, math.asin, math.sqrt
        pi = math.pi

        def offsets(sat: int) -> Tuple[float, float]:
            """``(d_alpha, d_gamma)`` in grid steps from ``sat`` to the
            nearer destination representation (the ascending one on
            ties): ``wrap_signed`` of each difference, divided by the
            spacing."""
            alpha_s = raan(sat)
            gamma_s = arg_lat(sat)
            w = (alpha_a - alpha_s) % TWO_PI
            da = (w - TWO_PI if w > pi else w) / d_raan
            w = (gamma_a - gamma_s) % TWO_PI
            dg = (w - TWO_PI if w > pi else w) / d_phase
            w = (alpha_d - alpha_s) % TWO_PI
            da_d = (w - TWO_PI if w > pi else w) / d_raan
            w = (gamma_d - gamma_s) % TWO_PI
            dg_d = (w - TWO_PI if w > pi else w) / d_phase
            if abs(da_d) + abs(dg_d) < abs(da) + abs(dg):
                return da_d, dg_d
            return da, dg

        delay = walked.delay_s
        distance = walked.distance_km
        deflected = walked.deflected
        visited = set(path)
        current = path[-1]
        for _ in range(max_hops - (len(path) - 1)):
            # Lines 1-2: central_angle(satellite, D), operand for
            # operand; the one angle also decides degraded delivery.
            lat = sub(current, 0)
            h = (sin((dest_lat - lat) / 2.0) ** 2
                 + cos(lat) * cos_dest
                 * sin((dest_lon - sub(current, 1)) / 2.0) ** 2)
            if not 0.0 <= h <= 1.0:
                h = min(1.0, max(0.0, h))
            angle = 2.0 * asin(sqrt(h))
            if angle <= coverage:
                return RouteResult(True, path, delay, distance,
                                   deflected=deflected)
            # Algorithm 1's direction: the larger offset picks the
            # dimension, its sign the way round (up, down, left, right
            # columns).  The offsets are ``offsets(current)`` spelled
            # out: every hop pays for them, and the call alone measured
            # about 6 % of the walk.
            alpha_s = raan(current)
            gamma_s = arg_lat(current)
            w = (alpha_a - alpha_s) % TWO_PI
            da = (w - TWO_PI if w > pi else w) / d_raan
            w = (gamma_a - gamma_s) % TWO_PI
            dg = (w - TWO_PI if w > pi else w) / d_phase
            w = (alpha_d - alpha_s) % TWO_PI
            da_d = (w - TWO_PI if w > pi else w) / d_raan
            w = (gamma_d - gamma_s) % TWO_PI
            dg_d = (w - TWO_PI if w > pi else w) / d_phase
            if abs(da_d) + abs(dg_d) < abs(da) + abs(dg):
                da = da_d
                dg = dg_d
            column = None
            if abs(da) < 0.5 and abs(dg) < 0.5:
                # Closest grid position, but the footprint misses D
                # (low elevation); deliver degraded rather than loop.
                if angle <= nearly:
                    return RouteResult(True, path, delay, distance,
                                       degraded=True, deflected=deflected)
            else:
                if abs(da) > abs(dg):
                    column = 3 if da > 0 else 2
                else:
                    column = 0 if dg > 0 else 1
                preferred = wiring(current, column)
                if preferred in visited or not edge_up(current, column):
                    column = None
                elif len(path) >= hand_back:
                    return RouteResult(False, path, delay, distance,
                                       deflected=deflected)
            if column is None:
                # Greedy deflection: the live unvisited neighbour
                # nearest the goal (the first of equals), or give up.
                deflected = True
                best_metric = math.inf
                for candidate in range(4):
                    nbr = wiring(current, candidate)
                    if not edge_up(current, candidate) or nbr in visited:
                        continue
                    da, dg = offsets(nbr)
                    metric = abs(da) + abs(dg)
                    if metric < best_metric:
                        best_metric = metric
                        column = candidate
                        preferred = nbr
                if column is None:
                    return RouteResult(False, path, delay, distance,
                                       deflected=deflected)
            length = hop_km(current, column)
            delay += length / SPEED_OF_LIGHT_KM_S
            distance += length
            current = preferred
            path.append(current)
            visited.add(current)
        return RouteResult(False, path, delay, distance,
                           deflected=deflected)


class DijkstraRouter:
    """Stateful shortest-path baseline over a topology snapshot.

    Every query builds :meth:`GridTopology.delay_adjacency` for its
    epoch's :class:`~repro.topology.grid.TopologyState` and searches it
    with ``scipy.sparse.csgraph.dijkstra``.  The CSR is not cached: a
    build is about 0.3 ms on Starlink and no caller asks twice at one
    ``(t, fault_epoch)``.
    """

    def __init__(self, topology: GridTopology):
        self.topology = topology

    def route_many(self, src_sats: Sequence[int],
                   dst_sats: Sequence[int], t: float) -> List[RouteResult]:
        """Shortest paths for ``(src, dst)`` satellite pairs in bulk.

        One multi-source ``csgraph.dijkstra`` run per unique source
        over the sparse +Grid adjacency; each pair's path is rebuilt
        from the predecessor matrix, so pairs sharing a source share
        the search.  Dead and out-of-range endpoints are undelivered;
        an endpoint that is not an integer (a float, a bool) raises
        ``ValueError`` with :data:`SOURCE_CONTRACT`, and an epoch
        outside :data:`EPOCH_CONTRACT` raises too.
        ``delay_s`` equals a textbook Dijkstra over ``snapshot_graph``
        bit for bit (same ``hop_lengths_km`` / c weights, summed
        source to destination); between routes tied in exact arithmetic
        the path, and with it the last ulp of ``distance_km``, may
        differ from another implementation's.
        """
        from scipy.sparse.csgraph import dijkstra
        for sat in (*src_sats, *dst_sats):
            if not is_index(sat):
                raise ValueError(f"{SOURCE_CONTRACT}: got {sat!r}")
        check_epoch(t)
        srcs = [int(s) for s in src_sats]
        dsts = [int(d) for d in dst_sats]
        if len(srcs) != len(dsts):
            raise ValueError("src/dst sequences must have equal length")
        if not srcs:
            return []
        state = self.topology.state(t)
        matrix = self.topology.delay_adjacency(t)
        neighbors = grid_neighbor_table(self.topology.constellation)
        hop_km = state.snapshot.hop_lengths_km()
        total = matrix.shape[0]
        sat_up = state.sat_up
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
