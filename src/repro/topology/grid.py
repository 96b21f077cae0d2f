"""The +Grid satellite network topology (S3, S6).

Every satellite keeps four inter-satellite links: two to its intra-orbit
neighbours and two to the same slot of the adjacent planes -- the
"standard grid satellite network topology [6, 79]" the paper assumes.
Ground stations attach to whatever satellite is overhead at a given
time (a ground-space link).

Each +Grid fact has one copy: the wiring is ``grid_neighbor_table``
(per shell shape), ISL lengths are ``hop_lengths_km()`` (per
snapshot), and liveness is one read-only ``(N,)`` satellite mask and
one ``(N, 4)`` edge mask per :attr:`GridTopology.fault_epoch`, which
every change of the fault sets bumps.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..constants import EARTH_RADIUS_KM, SPEED_OF_LIGHT_KM_S
from ..orbits.constellation import Constellation
from ..orbits.coordinates import distance3, geodetic_to_ecef
from ..orbits.coverage import coverage_half_angle
from ..orbits.groundstations import GroundStation
from ..orbits.propagator import IdealPropagator
from ..orbits.snapshot import (
    GRID_DIRECTIONS,
    grid_neighbor_table,
    snapshot_for,
)
from .links import propagation_delay_s

if TYPE_CHECKING:
    import networkx as nx


class GridTopology:
    """Time-parameterised +Grid topology over one constellation.

    Node naming: satellites are integers (flat index); ground stations
    are their :class:`GroundStation` names.
    """

    def __init__(self, propagator: IdealPropagator,
                 ground_stations: Sequence[GroundStation] = ()):
        self.propagator = propagator
        self.constellation: Constellation = propagator.constellation
        self.ground_stations = list(ground_stations)
        self._failed_sats: set = set()
        self._failed_isls: set = set()
        self._failed_stations: set = set()
        #: Monotonic counter bumped on every failure-state change, so
        #: liveness-dependent caches (the liveness masks, the batch
        #: router's next-hop tables) can key on it.  Pure-geometry
        #: snapshots never depend on it.
        self._fault_epoch = 0
        #: ``(fault_epoch, sat_up, edge_up)`` of the last mask build.
        self._masks: Optional[Tuple[int, np.ndarray, np.ndarray]] = None

    # -- failure injection ---------------------------------------------------

    @property
    def fault_epoch(self) -> int:
        """Version of the failure state; liveness caches key on it."""
        return self._fault_epoch

    def _check_satellite(self, sat: int) -> int:
        """``sat`` as a plain int, or ``ValueError``.

        A satellite is an integer flat index in ``[0, N)``: a negative
        index must not wrap to satellite N - 1 on the array planes, and
        a float or bool is not an index.  Every read and write that
        takes a satellite index goes through this check.
        """
        return _check_index(sat, self.constellation.total_satellites,
                            "satellite")

    def _isl_key(self, sat_a: int, sat_b: int) -> FrozenSet[int]:
        return frozenset((self._check_satellite(sat_a),
                          self._check_satellite(sat_b)))

    def _mark(self, marks: set, key, failed: bool) -> None:
        """Add (``failed``) or drop one failure mark; only a change
        bumps the fault epoch, so every ``fail_*``/``recover_*`` is
        idempotent."""
        if (key in marks) != failed:
            if failed:
                marks.add(key)
            else:
                marks.discard(key)
            self._fault_epoch += 1

    def fail_satellite(self, sat: int) -> None:
        """Remove a satellite (radiation/debris failure, S3.3).

        Idempotent.  Raises ``ValueError`` unless ``sat`` is an integer
        in ``[0, N)``.
        """
        self._mark(self._failed_sats, self._check_satellite(sat), True)

    def recover_satellite(self, sat: int) -> None:
        """Bring a failed satellite back into the topology."""
        self._mark(self._failed_sats, self._check_satellite(sat), False)

    def fail_isl(self, sat_a: int, sat_b: int) -> None:
        """Take one ISL down (laser misalignment, S3.3). Idempotent."""
        self._mark(self._failed_isls, self._isl_key(sat_a, sat_b), True)

    def recover_isl(self, sat_a: int, sat_b: int) -> None:
        """Restore a failed inter-satellite link. Idempotent."""
        self._mark(self._failed_isls, self._isl_key(sat_a, sat_b), False)

    def fail_ground_station(self, station: int) -> None:
        """Take one ground station offline (regional outage).

        Idempotent.  Raises ``ValueError`` unless ``station`` is an integer in
        ``[0, len(ground_stations))``.
        """
        self._mark(self._failed_stations, _check_index(
            station, len(self.ground_stations), "ground station"), True)

    def recover_ground_station(self, station: int) -> None:
        """Bring a downed ground station back. Idempotent."""
        self._mark(self._failed_stations, _check_index(
            station, len(self.ground_stations), "ground station"), False)

    def failed_satellites(self) -> FrozenSet[int]:
        """The currently-failed satellite set (immutable view)."""
        return frozenset(self._failed_sats)

    @property
    def has_topology_faults(self) -> bool:
        """Whether any satellite or ISL failure mark is active."""
        return bool(self._failed_sats or self._failed_isls)

    def live_ground_stations(self) -> List[Tuple[int, GroundStation]]:
        """(index, station) pairs of every currently-online station."""
        return [(index, station)
                for index, station in enumerate(self.ground_stations)
                if index not in self._failed_stations]

    def is_up(self, sat: int) -> bool:
        """Whether a satellite is alive (a fault-set query)."""
        return self._check_satellite(sat) not in self._failed_sats

    def isl_up(self, sat_a: int, sat_b: int) -> bool:
        """Whether the link between two satellites is usable.

        A fault-set query: both endpoints alive and no failure mark on
        the link.  The walks read the same fact from :meth:`edge_liveness`.
        """
        key = self._isl_key(sat_a, sat_b)
        return key.isdisjoint(self._failed_sats) \
            and key not in self._failed_isls

    def isl_marked_failed(self, sat_a: int, sat_b: int) -> bool:
        """Whether the link itself carries a failure mark.

        Distinct from ``not isl_up``: a link with live endpoints and no
        mark is up, while a marked link stays down even after its
        endpoints recover.  Fault injectors use this to restore only
        the marks they themselves placed.
        """
        return self._isl_key(sat_a, sat_b) in self._failed_isls

    def _liveness(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """``(fault_epoch, sat_up, edge_up)``: the one build of the
        liveness masks from the fault sets, once per fault epoch.  Both
        masks are read-only; a fault makes the next read build new ones.
        """
        masks = self._masks
        if masks is None or masks[0] != self._fault_epoch:
            neighbors = grid_neighbor_table(self.constellation)
            sat_up = np.ones(len(neighbors), dtype=bool)
            sat_up[list(self._failed_sats)] = False
            edge_up = sat_up[:, None] & sat_up[neighbors]
            for link in self._failed_isls:
                a, b = min(link), max(link)
                edge_up[a, neighbors[a] == b] = False
                edge_up[b, neighbors[b] == a] = False
            sat_up.setflags(write=False)
            edge_up.setflags(write=False)
            masks = self._masks = (self._fault_epoch, sat_up, edge_up)
        return masks

    def satellite_liveness(self) -> np.ndarray:
        """Read-only ``(N,)`` bool: entry ``s`` is ``is_up(s)``."""
        return self._liveness()[1]

    def edge_liveness(self) -> np.ndarray:
        """Read-only ``(N, 4)`` liveness of every +Grid edge.

        Entry ``[s, d]`` is ``isl_up(s, grid_neighbor_table[s, d])``.
        The one mask behind both routing walks, the batch router's
        next-hop tables, :meth:`delay_adjacency` and
        :meth:`snapshot_graph`.
        """
        return self._liveness()[2]

    def _live_grid_edges(self, t: float
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, km)`` of every live ``(up, right)`` ISL at t.

        Satellites ascending, ``up`` first; lengths are the snapshot's
        ``hop_lengths_km``.  The edge list :meth:`delay_adjacency` and
        :meth:`snapshot_graph` share.
        """
        columns = [0, 3]  # up, right (GRID_DIRECTIONS)
        live = self.edge_liveness()[:, columns]
        src = np.nonzero(live)[0]
        dst = grid_neighbor_table(self.constellation)[:, columns][live]
        hop_km = snapshot_for(self.propagator, t).hop_lengths_km()
        return src, dst, hop_km[:, columns][live]

    def delay_adjacency(self, t: float):
        """Symmetric CSR of one-way ISL delays (s) over the live +Grid at t.

        The one adjacency of the stateful side: the Dijkstra baseline,
        mean hops to a gateway, gateway-routed traffic load and
        gateway reachability all search this matrix through
        ``scipy.sparse.csgraph``.  Built from the live ``(up, right)``
        edges :meth:`snapshot_graph` uses and mirrored with
        ``maximum``, so an ISL that the wiring names twice (2 planes:
        ``left == right``; 2 slots: ``up == down``) keeps one copy of
        its delay; a failed satellite is an isolated row, and the
        zero-length self-loops of 1-plane / 1-slot shells drop out.
        Not cached: a build is about 0.3 ms on Starlink.  scipy is
        imported here, not at module level: the import costs ~0.3 s,
        which runs that never search the baseline should not pay.
        """
        from scipy.sparse import csr_matrix
        total = self.constellation.total_satellites
        src, dst, km = self._live_grid_edges(t)
        half = csr_matrix((km / SPEED_OF_LIGHT_KM_S, (src, dst)),
                          shape=(total, total))
        return half.maximum(half.T)

    # -- neighbourhood ---------------------------------------------------------

    def grid_neighbors(self, sat: int) -> Tuple[int, ...]:
        """(up, down, left, right) neighbours of ``sat``: its table row."""
        table = grid_neighbor_table(self.constellation)
        return tuple(table[self._check_satellite(sat)].tolist())

    def isl_neighbors(self, sat: int) -> List[int]:
        """The up-to-four live grid neighbours of ``sat``."""
        live = self.edge_liveness()[self._check_satellite(sat)].tolist()
        return [n for n, up in zip(self.grid_neighbors(sat), live) if up]

    def directional_neighbors(self, sat: int) -> Dict[str, int]:
        """Neighbours keyed by the Algorithm 1 direction names."""
        return dict(zip(GRID_DIRECTIONS, self.grid_neighbors(sat)))

    # -- geometry ---------------------------------------------------------------

    def sat_position(self, sat: int, t: float) -> Tuple[float, float, float]:
        """Earth-fixed Cartesian position of a satellite at t (km)."""
        pos = snapshot_for(self.propagator, t).positions_ecef[sat]
        return (float(pos[0]), float(pos[1]), float(pos[2]))

    def isl_distance_km(self, sat_a: int, sat_b: int, t: float) -> float:
        """Length (km) of the ISL between two +Grid neighbours at t.

        The snapshot's ``hop_lengths_km`` entry both walks read; the
        reverse direction only negates the coordinate differences, so
        both orders give the same bits.  ``ValueError`` unless ``sat_b``
        is a grid neighbour of ``sat_a``.
        """
        a = self._check_satellite(sat_a)
        b = self._check_satellite(sat_b)
        columns = np.flatnonzero(
            grid_neighbor_table(self.constellation)[a] == b)
        if not columns.size:
            raise ValueError(
                f"satellites {a} and {b} are not +Grid neighbours")
        hop_km = snapshot_for(self.propagator, t).hop_lengths_km()
        return float(hop_km[a, columns[0]])

    def isl_delay_s(self, sat_a: int, sat_b: int, t: float) -> float:
        """One-way propagation delay over an ISL (s)."""
        return propagation_delay_s(self.isl_distance_km(sat_a, sat_b, t))

    def gsl_delay_s(self, sat: int, station: GroundStation,
                    t: float) -> float:
        """One-way propagation delay of a ground-space link (s)."""
        sat_pos = self.sat_position(sat, t)
        gs_pos = geodetic_to_ecef(station.lat, station.lon, EARTH_RADIUS_KM)
        return propagation_delay_s(distance3(sat_pos, gs_pos))

    # -- ground-station attachment -----------------------------------------------

    def station_access_satellite(self, station: GroundStation,
                                 t: float) -> int:
        """The satellite currently serving a gateway (closest overhead).

        Returns -1 when no live satellite covers the gateway.
        """
        return self.live_access_satellite(station.lat, station.lon, t)

    def live_access_satellite(self, lat: float, lon: float,
                              t: float) -> int:
        """Closest live satellite covering ``(lat, lon)`` radians at t.

        One haversine over the snapshot and one masked ``argmin``: dead
        satellites and angles beyond the coverage half angle are out,
        and among equal angles the lowest index wins (a stable sort of
        the covering satellites picks the same one).  -1 when none.
        """
        c = self.constellation
        theta = coverage_half_angle(c.altitude_km, c.min_elevation_deg)
        ang = snapshot_for(self.propagator, t).central_angles(lat, lon)
        if self._failed_sats:
            ang[~self.satellite_liveness()] = np.inf
        best = int(np.argmin(ang))
        return best if ang[best] <= theta else -1

    def gateway_access_satellites(self, t: float
                                  ) -> List[Tuple[GroundStation, int]]:
        """(station, access satellite) of every online, covered gateway.

        In station order; offline stations and stations no live
        satellite covers at ``t`` are left out.
        """
        pairs = ((station, self.station_access_satellite(station, t))
                 for _, station in self.live_ground_stations())
        return [(station, sat) for station, sat in pairs if sat >= 0]

    # -- graph snapshot ------------------------------------------------------------

    def snapshot_graph(self, t: float,
                       include_ground: bool = True) -> nx.Graph:
        """A weighted (propagation-delay) graph of the live topology at t.

        Used by the chaos experiment's stateful baseline (reachability
        under failure injection) and, in the tests, as the networkx
        oracle for :meth:`delay_adjacency`.  A view of the arrays the
        batch plane routes on: the live ``(up, right)`` edge list of
        :meth:`delay_adjacency`, with its ``hop_lengths_km`` lengths.
        """
        # Function-local: a process that never builds a graph does not
        # pay for importing networkx.
        import networkx as nx
        graph = nx.Graph()
        graph.add_nodes_from(
            np.nonzero(self.satellite_liveness())[0].tolist())
        src, dst, dist = self._live_grid_edges(t)
        graph.add_edges_from(
            (a, b, {"weight": w, "distance_km": d})
            for a, b, w, d in zip(src.tolist(), dst.tolist(),
                                  (dist / SPEED_OF_LIGHT_KM_S).tolist(),
                                  dist.tolist()))
        if include_ground:
            for gs, access in self.gateway_access_satellites(t):
                delay = self.gsl_delay_s(access, gs, t)
                graph.add_edge(gs.name, access, weight=delay,
                               distance_km=delay * SPEED_OF_LIGHT_KM_S)
        return graph


def _check_index(index: int, bound: int, what: str) -> int:
    """``index`` as a plain int if it is an integer in ``[0, bound)``
    (never a bool or a float), else ``ValueError``."""
    if isinstance(index, (bool, np.bool_)) \
            or not isinstance(index, (int, np.integer)) \
            or not 0 <= index < bound:
        raise ValueError(f"no {what} with index {index!r}")
    return int(index)
