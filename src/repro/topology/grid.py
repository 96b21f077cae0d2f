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
every change of the fault sets bumps.  Every per-epoch read goes
through the :class:`TopologyState` of ``GridTopology.state(t)``.
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..constants import HALF_PI, SPEED_OF_LIGHT_KM_S
from ..orbits.constellation import Constellation
from ..orbits.coverage import coverage_half_angle
from ..orbits.groundstations import GroundStation
from ..orbits.propagator import IdealPropagator
from ..orbits.snapshot import (
    GRID_DIRECTIONS,
    ConstellationSnapshot,
    grid_neighbor_table,
    snapshot_for,
)
from .links import propagation_delay_s

if TYPE_CHECKING:
    import networkx as nx

#: The destination contract of every routing entry point and of
#: ground-point attachment; violations raise ``ValueError`` before any
#: routing or snapshot read.
DESTINATION_CONTRACT = ("destination lat/lon must be finite radians "
                        "with |lat| <= pi/2")

#: The epoch contract of every per-epoch read: ``t`` is a finite
#: number of seconds (a NaN epoch would otherwise compare its way to
#: "delivered in 0 hops", and an infinite one dies in the propagator).
EPOCH_CONTRACT = "route epoch t must be finite seconds"


def check_epoch(t: float) -> None:
    """``ValueError`` unless ``t`` meets :data:`EPOCH_CONTRACT`."""
    if not math.isfinite(t):
        raise ValueError(f"{EPOCH_CONTRACT}: got {t!r}")


def check_ground_point(lat: float, lon: float) -> None:
    """``ValueError`` unless ``(lat, lon)`` meets
    :data:`DESTINATION_CONTRACT`."""
    if not (math.isfinite(lon) and abs(lat) <= HALF_PI):
        raise ValueError(f"{DESTINATION_CONTRACT}: got ({lat!r}, {lon!r})")


class FaultLog:
    """One fault epoch's failed satellites and ISLs, frozen, and the
    read-only liveness masks built from them on the first read
    (:attr:`TopologyState.sat_up`); every state of the epoch shares it."""

    __slots__ = ("sats", "isls", "masks")

    def __init__(self, sats: set, isls: set):
        self.sats = frozenset(sats)
        self.isls = frozenset(isls)
        self.masks: Optional[Tuple[np.ndarray, np.ndarray]] = None


class TopologyState:
    """Everything a routing decision at one ``(t, fault_epoch)`` reads.

    ``snapshot`` is the epoch's geometry (coordinates, subpoints,
    ``hop_lengths_km()``) and ``faults`` the fault epoch's
    :class:`FaultLog`.  Nothing in a state changes once built: a fault
    makes :meth:`GridTopology.state` build a new one, so a wave that
    holds this one routes on the pre-fault arrays to its end.  The
    masks and the compiled walk's arrays (:meth:`walk_pointers`) are
    built on first read.
    """

    __slots__ = ("snapshot", "fault_epoch", "faults", "_walk")

    def __init__(self, snapshot: ConstellationSnapshot, fault_epoch: int,
                 faults: FaultLog):
        self.snapshot = snapshot
        self.fault_epoch = fault_epoch
        self.faults = faults
        #: ``(arrays, addresses)`` of the compiled walk, once built.
        self._walk: Optional[Tuple[Tuple, Tuple[int, ...]]] = None

    @property
    def healthy(self) -> bool:
        """Whether no satellite and no ISL is down."""
        return not (self.faults.sats or self.faults.isls)

    @property
    def sat_up(self) -> np.ndarray:
        """Read-only ``(N,)`` bool: entry ``s`` is ``is_up(s)``."""
        return self._masks()[0]

    @property
    def edge_up(self) -> np.ndarray:
        """Read-only ``(N, 4)`` liveness of every +Grid edge: entry
        ``[s, d]`` is ``isl_up(s, grid_neighbor_table[s, d])``."""
        return self._masks()[1]

    def _masks(self) -> Tuple[np.ndarray, np.ndarray]:
        faults = self.faults
        if faults.masks is None:
            neighbors = grid_neighbor_table(self.snapshot.constellation)
            sat_up = np.ones(len(neighbors), dtype=bool)
            sat_up[list(faults.sats)] = False
            edge_up = sat_up[:, None] & sat_up[neighbors]
            for link in faults.isls:
                a, b = min(link), max(link)
                edge_up[a, neighbors[a] == b] = False
                edge_up[b, neighbors[b] == a] = False
            sat_up.setflags(write=False)
            edge_up.setflags(write=False)
            faults.masks = (sat_up, edge_up)
        return faults.masks

    @property
    def walk_built(self) -> bool:
        """Whether :meth:`walk_pointers` has built its arrays."""
        return self._walk is not None

    def walk_pointers(self) -> Tuple[int, ...]:
        """The addresses of the read-only arrays the compiled walk
        reads, in its argument order, built on the first call.

        The wiring, hop lengths and edge mask are the shared copies;
        the rest exist for the walk alone: contiguous ``(alpha,
        gamma)`` and subpoint columns, ``hop_km / c`` delays (the
        reference walk's quotient bits) and unit position vectors for
        the coverage screen.
        """
        if self._walk is None:
            snap = self.snapshot
            hop_km = snap.hop_lengths_km()
            pos = snap.positions_ecef
            norm = np.sqrt(pos[:, 0] * pos[:, 0] + pos[:, 1] * pos[:, 1]
                           + pos[:, 2] * pos[:, 2])
            arrays = tuple(np.ascontiguousarray(array) for array in (
                snap.raan_ecef, snap.arg_latitude, snap.subpoints[:, 0],
                snap.subpoints[:, 1], pos[:, 0] / norm, pos[:, 1] / norm,
                pos[:, 2] / norm, grid_neighbor_table(snap.constellation),
                hop_km, hop_km / SPEED_OF_LIGHT_KM_S, self.edge_up))
            for array in arrays:
                array.setflags(write=False)
            self._walk = (arrays, tuple(array.ctypes.data
                                        for array in arrays))
        return self._walk[1]

    def live_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, km)`` of every live ``(up, right)`` ISL,
        satellites ascending, ``up`` first, lengths from
        ``hop_lengths_km``: the edges of both ``delay_adjacency`` and
        ``snapshot_graph``."""
        columns = [0, 3]  # up, right (GRID_DIRECTIONS)
        live = self.edge_up[:, columns]
        src = np.nonzero(live)[0]
        dst = grid_neighbor_table(
            self.snapshot.constellation)[:, columns][live]
        hop_km = self.snapshot.hop_lengths_km()
        return src, dst, hop_km[:, columns][live]


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
        #: Monotonic counter bumped on every failure-state change: the
        #: second half of a :class:`TopologyState`'s key.  Pure-geometry
        #: snapshots never depend on it.
        self._fault_epoch = 0
        #: The last state built (:meth:`state`), the only one kept.
        self._state: Optional[TopologyState] = None

    # -- failure injection ---------------------------------------------------

    @property
    def fault_epoch(self) -> int:
        """Version of the failure state; :meth:`state` keys on it."""
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
        the link.  The walks read the same fact from a
        :class:`TopologyState`'s ``edge_up``.
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

    def state(self, t: float) -> TopologyState:
        """The :class:`TopologyState` at epoch ``t`` and the current
        fault epoch.

        One slot holds the last state built: every root asks for the
        state it just used or for a new one.  A new state at the same
        fault epoch shares its predecessor's :class:`FaultLog`, so the
        masks are built at most once per fault epoch.  ``ValueError``
        with :data:`EPOCH_CONTRACT` for a non-finite ``t``.
        """
        state = self._state
        epoch = self.fault_epoch
        if (state is not None and state.snapshot.t == t
                and state.fault_epoch == epoch):
            return state
        check_epoch(t)
        faults = (state.faults if state is not None
                  and state.fault_epoch == epoch
                  else FaultLog(self._failed_sats, self._failed_isls))
        state = self._state = TopologyState(
            snapshot_for(self.propagator, t), epoch, faults)
        return state

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
        src, dst, km = self.state(t).live_edges()
        half = csr_matrix((km / SPEED_OF_LIGHT_KM_S, (src, dst)),
                          shape=(total, total))
        return half.maximum(half.T)

    # -- neighbourhood ---------------------------------------------------------

    def grid_neighbors(self, sat: int) -> Tuple[int, ...]:
        """(up, down, left, right) neighbours of ``sat``: its table row."""
        table = grid_neighbor_table(self.constellation)
        return tuple(table[self._check_satellite(sat)].tolist())

    def isl_neighbors(self, sat: int) -> List[int]:
        """The up-to-four live grid neighbours of ``sat``, by
        :meth:`isl_up`."""
        return [n for n in self.grid_neighbors(sat) if self.isl_up(sat, n)]

    def directional_neighbors(self, sat: int) -> Dict[str, int]:
        """Neighbours keyed by the Algorithm 1 direction names."""
        return dict(zip(GRID_DIRECTIONS, self.grid_neighbors(sat)))

    # -- geometry ---------------------------------------------------------------

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
        hop_km = self.state(t).snapshot.hop_lengths_km()
        return float(hop_km[a, columns[0]])

    def isl_delay_s(self, sat_a: int, sat_b: int, t: float) -> float:
        """One-way propagation delay over an ISL (s)."""
        return propagation_delay_s(self.isl_distance_km(sat_a, sat_b, t))

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
        A point outside :data:`DESTINATION_CONTRACT` raises
        ``ValueError`` before any snapshot read.
        """
        check_ground_point(lat, lon)
        state = self.state(t)
        c = self.constellation
        theta = coverage_half_angle(c.altitude_km, c.min_elevation_deg)
        ang = state.snapshot.central_angles(lat, lon)
        if state.faults.sats:
            ang[~state.sat_up] = np.inf
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

    def snapshot_graph(self, t: float) -> nx.Graph:
        """A weighted (propagation-delay) graph of the live satellites at t.

        Used by the chaos experiment's stateful baseline (reachability
        under failure injection) and, in the tests, as the networkx
        oracle for :meth:`delay_adjacency`.  A view of the arrays the
        batch plane routes on: the live ``(up, right)`` edge list of
        :meth:`delay_adjacency`, with its ``hop_lengths_km`` lengths.
        Gateways are not nodes: :meth:`gateway_access_satellites` is
        their attachment.
        """
        # Function-local: a process that never builds a graph does not
        # pay for importing networkx.
        import networkx as nx
        state = self.state(t)
        graph = nx.Graph()
        graph.add_nodes_from(np.nonzero(state.sat_up)[0].tolist())
        src, dst, dist = state.live_edges()
        graph.add_edges_from(
            (a, b, {"weight": w, "distance_km": d})
            for a, b, w, d in zip(src.tolist(), dst.tolist(),
                                  (dist / SPEED_OF_LIGHT_KM_S).tolist(),
                                  dist.tolist()))
        return graph


def is_index(value: object) -> bool:
    """Whether ``value`` has an index's type: an ``int`` or NumPy
    integer, never a bool or a float."""
    return isinstance(value, (int, np.integer)) \
        and not isinstance(value, bool)


def _check_index(index: int, bound: int, what: str) -> int:
    """``index`` as a plain int if it :func:`is_index` in
    ``[0, bound)``, else ``ValueError``."""
    if not is_index(index) or not 0 <= index < bound:
        raise ValueError(f"no {what} with index {index!r}")
    return int(index)
