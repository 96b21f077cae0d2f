"""Batch packet-routing plane: Algorithm 1 over ``(N,)`` packet waves.

Algorithm 1 exists exactly twice in this repo.  The *reference walk*
is the scalar :class:`~repro.topology.routing.GeospatialRouter`: one
packet at a time through a Python hop loop, every code path modelled
(deflection around faults, ``avoid_links``, seam revisits).  The
*compiled walk* (:mod:`repro.topology._walk_kernel`) is a per-packet C
loop over shared per-epoch arrays that replays the reference
arithmetic operation for operation and *flags* any packet that needs
a path it does not model.  :meth:`BatchGeoRouter.route_batch` runs the
compiled walk over the wave, and the reference walk *continues* each
flagged packet from where the compiled walk stopped: the compiled walk
hands over the prefix it walked (path, delay, distance), which is the
reference walk's own prefix bit for bit, so only the hops from the
flag on run in Python.  On a host without the compiled walk (no C
compiler, failed build, ``REPRO_NO_CKERNEL``) the whole wave takes the
reference walk from the source.  Either way
``route_batch(...).results()`` is
element-for-element identical (paths, verdicts, delays, distances) to
calling ``GeospatialRouter.route`` in a loop, which is what the
equivalence suite asserts on both lanes.

``BatchRouteResult.fallback[i]`` means one thing on both lanes: packet
``i`` left Algorithm 1's preferred direction (centered but uncovered,
dead preferred edge, seam revisit) -- the compiled walk's flag, and
``RouteResult.deflected`` of the reference walk.  Two flags stay
engine-specific: ``avoid_links`` flags the whole wave on either lane,
and a path longer than the compiled walk's 64-node buffer is flagged
by the compiled walk only.

Per-epoch next-hop tables
=========================
All per-satellite state the compiled walk gathers from -- runtime
(alpha, gamma) coordinates, sub-satellite points, the ``(N, 4)`` +Grid
neighbour table, ISL hop lengths and liveness masks -- is materialised
once per ``(epoch, fault_epoch)`` into a :class:`NextHopTable`, kept
in a small LRU.  Fault injection both re-keys the cache (the key
embeds ``fault_epoch``) and actively drops entries through the
topology's fault listeners, so chaos scenarios can never read a stale
liveness mask.

Epoch sweeps
============
Workloads that route *across* time -- the Fig. 18b relay pipeline
samples one packet per epoch over an orbital period, the cohort
engine probes offered load over a horizon -- go through
:meth:`BatchGeoRouter.route_sweep`: packets carry per-element epochs,
are grouped by epoch, and each epoch's wave routes in one
``route_batch``-equivalent call with the results scattered back in
input order.  The table LRU (and the snapshot LRU underneath it) is
sized to the sweep up front, so one table build per distinct epoch
serves the whole sweep and every repeat of it.
"""

from __future__ import annotations

import ctypes
import math
from collections import OrderedDict
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..constants import HALF_PI, SPEED_OF_LIGHT_KM_S, TWO_PI
from ..obs.metrics import MetricsRegistry
from ..orbits.snapshot import (
    ConstellationSnapshot,
    grid_neighbor_table,
    snapshot_for,
    snapshots_for,
)
from ._walk_kernel import load_kernel
from .grid import GridTopology
from .routing import (
    DESTINATION_CONTRACT,
    EPOCH_CONTRACT,
    SOURCE_CONTRACT,
    GeospatialRouter,
    RouteResult,
)

__all__ = [
    "BatchGeoRouter",
    "BatchRouteResult",
    "NextHopTable",
    "BATCH_SIZE_BUCKETS",
]

#: Histogram buckets for ``routing.batch_size`` (batches span request
#: sizes from single packets to full Monte Carlo sweeps).
BATCH_SIZE_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0,
                      16384.0, 65536.0, 262144.0, 1048576.0)

#: Packets per compiled-walk call: large waves are split so one call's
#: inputs and outputs stay cache-resident.  Results are independent per
#: packet, so any chunking is bitwise neutral.
_CHUNK_PACKETS = 65536

#: Next-hop tables kept per router until a sweep asks for more.
_TABLE_CACHE_SIZE = 8

#: Half-width of the guard band (in cosine space) around the coverage
#: threshold inside which the compiled walk's dot-product screen defers
#: to the exact scalar haversine.  Both formulas agree with the true
#: central angle to ~1e-14, so 1e-9 is over a thousand times wider than
#: any possible disagreement -- decisions outside the band are provably
#: identical.
_COVERAGE_GUARD = 1e-9


class NextHopTable:
    """Everything one epoch of batch forwarding gathers from.

    Pure-geometry arrays (coordinates, neighbour wiring, hop lengths)
    come straight from the epoch snapshot and the constellation shape;
    liveness (``healthy`` / ``edge_up``) is sampled from the topology's
    failure marks at build time, which is why the cache key includes
    the fault epoch.
    """

    __slots__ = ("snapshot", "fault_epoch", "neighbors", "hop_km",
                 "hop_delay_s", "alpha", "gamma", "sub_lat", "sub_lon",
                 "unit_x", "unit_y", "unit_z", "healthy", "edge_up")

    def __init__(self, snapshot: ConstellationSnapshot,
                 topology: GridTopology):
        self.snapshot = snapshot
        self.fault_epoch = topology.fault_epoch
        self.neighbors = grid_neighbor_table(snapshot.constellation)
        self.hop_km = snapshot.hop_lengths_km()
        # Per-edge propagation delay, divided once at table build: the
        # scalar accumulates ``hop_km / c`` per hop, and an elementwise
        # divide of the same operands yields the same quotient bits.
        self.hop_delay_s = self.hop_km / SPEED_OF_LIGHT_KM_S
        # ascontiguousarray is a no-op passthrough when the snapshot
        # arrays are already contiguous; the compiled walk kernel
        # indexes raw pointers, so contiguity is load-bearing.
        self.alpha = np.ascontiguousarray(snapshot.raan_ecef)
        self.gamma = np.ascontiguousarray(snapshot.arg_latitude)
        subs = snapshot.subpoints
        self.sub_lat = np.ascontiguousarray(subs[:, 0])
        self.sub_lon = np.ascontiguousarray(subs[:, 1])
        # Unit position vectors: the walk's coverage *screen* is a dot
        # product against the destination radial (far cheaper than a
        # gathered haversine); only near-threshold packets re-test with
        # the exact scalar formula.
        pos = snapshot.positions_ecef
        norm = np.sqrt(pos[:, 0] * pos[:, 0] + pos[:, 1] * pos[:, 1]
                       + pos[:, 2] * pos[:, 2])
        self.unit_x = pos[:, 0] / norm
        self.unit_y = pos[:, 1] / norm
        self.unit_z = pos[:, 2] / norm
        self.healthy = not topology.has_topology_faults
        if self.healthy:
            self.edge_up = None
        else:
            self.edge_up = topology.edge_liveness()


class BatchRouteResult:
    """Structure-of-arrays outcome of one ``route_batch`` call.

    Scalar :class:`~repro.topology.routing.RouteResult` objects are
    materialised lazily (:meth:`result` / :meth:`results`): at millions
    of packets per second the per-packet Python objects would cost more
    than the routing itself, and bulk consumers (benchmarks, sweeps,
    the packet layer) only need the arrays.

    The dense path matrix is lazy for the same reason: the compiled
    walk writes only the first ``path_len[i]`` cells of each row, and
    normalising the rest to -1 is a couple hundred megabytes of memory
    traffic per million packets that verdict/delay consumers never
    need.  Row reads (:meth:`path`) slice by ``path_len`` and are
    always exact; :attr:`path_buffer` trims and normalises the matrix
    on first access.
    """

    __slots__ = ("delivered", "degraded", "delay_s", "distance_km",
                 "path_len", "fallback", "_paths", "_normalized")

    def __init__(self, n: int, paths: Optional[np.ndarray] = None,
                 path_len: int = 1):
        """``n`` undelivered, unflagged packets for a router to fill.

        ``paths`` is a raw ``(n, width)`` buffer whose cells beyond
        each ``path_len`` are normalised lazily; the default is one
        column of -1.
        """
        self.delivered = np.zeros(n, dtype=bool)
        self.degraded = np.zeros(n, dtype=bool)
        self.fallback = np.zeros(n, dtype=bool)
        self.delay_s = np.zeros(n, dtype=float)
        self.distance_km = np.zeros(n, dtype=float)
        self.path_len = np.full(n, path_len, dtype=np.int32)
        self._normalized = paths is None
        self._paths = (np.full((n, 1), -1, dtype=np.int32)
                       if paths is None else paths)

    def __len__(self) -> int:
        return int(self.delivered.shape[0])

    @property
    def path_buffer(self) -> np.ndarray:
        """The dense ``(N, width)`` path matrix, -1 beyond each path.

        Materialised on first access (see the class docstring); the
        trimmed, normalised matrix is cached.
        """
        if not self._normalized:
            paths = self._paths
            width = max(int(self.path_len.max()), 1)
            if width < paths.shape[1]:
                paths = np.ascontiguousarray(paths[:, :width])
            paths[np.arange(width)[None, :]
                  >= self.path_len[:, None]] = -1
            self._paths = paths
            self._normalized = True
        return self._paths

    def _widen(self, width: int) -> None:
        """Grow the path matrix to ``width`` columns of -1."""
        have = self._paths.shape[1]
        if width > have:
            wider = np.full((len(self), width), -1, dtype=np.int32)
            wider[:, :have] = self._paths
            self._paths = wider

    def _scatter(self, sel: np.ndarray, wave: "BatchRouteResult") -> None:
        """Store ``wave``'s packets at the indices ``sel``."""
        rows = wave.path_buffer if self._normalized else wave._paths
        self._widen(rows.shape[1])
        self._paths[sel, :rows.shape[1]] = rows
        for name in ("delivered", "degraded", "fallback", "delay_s",
                     "distance_km", "path_len"):
            getattr(self, name)[sel] = getattr(wave, name)

    @property
    def hops(self) -> np.ndarray:
        """Per-packet hop count (``len(path) - 1``, floored at 0)."""
        return np.maximum(self.path_len - 1, 0)

    def path(self, index: int) -> List[int]:
        """The node path of packet ``index`` as a plain list."""
        n = int(self.path_len[index])
        return [int(v) for v in self._paths[index, :n]]

    def result(self, index: int) -> RouteResult:
        """Materialise packet ``index`` as a scalar RouteResult."""
        return RouteResult(
            delivered=bool(self.delivered[index]),
            path=self.path(index),
            delay_s=float(self.delay_s[index]),
            distance_km=float(self.distance_km[index]),
            degraded=bool(self.degraded[index]))

    def results(self) -> List[RouteResult]:
        """Materialise the whole batch (equivalence tests, small runs)."""
        return [self.result(i) for i in range(len(self))]


class BatchGeoRouter:
    """Algorithm 1 over packet batches, next-hop tables per epoch.

    Wraps a scalar :class:`GeospatialRouter` (sharing its coverage
    geometry and ``degraded_slack``): the reference walk that
    continues the packets the compiled walk flags, routes the whole
    wave when there is no compiled walk, and is what the equivalence
    suite compares against.
    """

    def __init__(self, topology: GridTopology, max_hops: int = 256,
                 metrics: Optional[MetricsRegistry] = None):
        self.topology = topology
        self.scalar = GeospatialRouter(topology, max_hops=max_hops)
        self.max_hops = max_hops
        self.metrics = metrics
        self._table_cache_size = _TABLE_CACHE_SIZE
        self._tables: "OrderedDict[Tuple[float, int], NextHopTable]" = (
            OrderedDict())
        c = topology.constellation
        #: Full-torus Walker shells (delta-RAAN spans the whole circle,
        #: e.g. Starlink/Kuiper deltas) admit a strict-decrease
        #: argument on the hop metric, so the greedy walk can never
        #: revisit a node; star constellations (OneWeb/Iridium,
        #: raan_spread = pi) have a seam where it can, and get an
        #: explicit per-step revisit check.
        self._full_torus = math.isclose(
            c.delta_raan * c.num_planes, TWO_PI, rel_tol=1e-9)
        topology.add_fault_listener(self.invalidate)

    # -- table cache ---------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached next-hop table (fault listeners call this)."""
        self._tables.clear()

    def table_cache_size(self) -> int:
        """Number of next-hop tables currently cached (diagnostics)."""
        return len(self._tables)

    def _count(self, name: str, amount: int = 1, **labels: object) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name, **labels).inc(amount)

    def _table(self, t: float) -> NextHopTable:
        key = (float(t), self.topology.fault_epoch)
        table = self._tables.get(key)
        if table is not None:
            self._tables.move_to_end(key)
            self._count("routing.table_cache_hits")
            return table
        self._count("routing.table_cache_misses")
        self._count("routing.table_builds")
        snapshot = snapshot_for(self.topology.propagator, t)
        table = NextHopTable(snapshot, self.topology)
        self._tables[key] = table
        while len(self._tables) > self._table_cache_size:
            self._tables.popitem(last=False)
        return table

    def _check_sources(self, src_sats: Sequence[int]) -> np.ndarray:
        """``src_sats`` as a contiguous int64 array, or ``ValueError``.

        Every entry must meet
        :data:`~repro.topology.routing.SOURCE_CONTRACT`; a float entry
        (``2.5``) is refused, not truncated to an index.
        """
        raw = np.asarray(src_sats)
        total = self.topology.constellation.total_satellites
        if raw.size and (raw.dtype.kind not in "iu"
                         or int(raw.min()) < 0 or int(raw.max()) >= total):
            raise ValueError(SOURCE_CONTRACT)
        return np.ascontiguousarray(raw, dtype=np.int64)

    # -- scalar delegation ----------------------------------------------------

    def route(self, src_sat: int, dest_lat: float, dest_lon: float,
              t: float,
              avoid_links: Optional[Set[FrozenSet[int]]] = None
              ) -> RouteResult:
        """Single-packet routing (delegates to the scalar reference)."""
        result = self.scalar.route(src_sat, dest_lat, dest_lon, t,
                                   avoid_links=avoid_links)
        self._count("routing.packets", plane="scalar")
        return result

    # -- the batch walk --------------------------------------------------------

    def route_batch(self, src_sats: Sequence[int],
                    dest_lats: Sequence[float],
                    dest_lons: Sequence[float], t: float,
                    avoid_links: Optional[Set[FrozenSet[int]]] = None
                    ) -> BatchRouteResult:
        """Route ``(N,)`` packets that share one epoch ``t``.

        The compiled walk routes the wave against the epoch's next-hop
        table; the reference walk continues each packet it flags
        (deflection, seam revisit, path longer than its buffer) from
        the prefix the compiled walk handed over, and routes every
        packet of an ``avoid_links`` wave from its source.  Without a
        compiled walk the reference walk routes the whole wave, with
        the same results and the same ``fallback`` mask (see the
        module docstring).  Raises ``ValueError`` before any routing
        on mismatched shapes, a source outside
        :data:`~repro.topology.routing.SOURCE_CONTRACT`, a destination
        outside :data:`~repro.topology.routing.DESTINATION_CONTRACT`
        or an epoch outside
        :data:`~repro.topology.routing.EPOCH_CONTRACT`.
        """
        src = self._check_sources(src_sats)
        dlat = np.ascontiguousarray(np.asarray(dest_lats, dtype=float))
        dlon = np.ascontiguousarray(np.asarray(dest_lons, dtype=float))
        if not (src.shape == dlat.shape == dlon.shape and src.ndim == 1):
            raise ValueError("src/dest arrays must share one (N,) shape")
        n = src.shape[0]
        _check_destinations(dlat, dlon)
        if not math.isfinite(t):
            raise ValueError(f"{EPOCH_CONTRACT}: got {t!r}")
        self._count("routing.batches")
        self._count("routing.packets", n, plane="batch")
        if self.metrics is not None:
            self.metrics.histogram(
                "routing.batch_size",
                buckets=BATCH_SIZE_BUCKETS).observe(float(n))

        if n == 0 or avoid_links:
            # Caller-supplied link avoidance composes with the visited
            # set inside the reference walk; rare (mid-flight
            # reroutes), so those waves take it wholesale, flagged as
            # a whole, and build no table.
            out = BatchRouteResult(n)
            out.fallback[:] = True
            return self._finish(out, src, dlat, dlon, t, avoid_links)

        # Table first, kernel second: the table counters
        # (``routing.table_builds`` / ``table_cache_*``) are the same
        # with and without a compiled walk.
        table = self._table(t)
        kernel = load_kernel()
        if kernel is None:
            return self._finish(BatchRouteResult(n), src, dlat, dlon, t,
                                whole_wave=True)
        # One raw path buffer for the whole batch; each chunk's rows
        # are a contiguous slice the kernel writes in place, so there
        # is no per-chunk stitch copy at all.  -1 normalisation of
        # never-written cells happens lazily on first path_buffer
        # access (see BatchRouteResult).
        #
        # The capacity is deliberately small: an uninitialised
        # 64-column buffer costs far less than a -1-filled
        # (max_hops + 1)-column one, and the kernel flags the rare
        # longer walk for the reference walk to continue (it has no
        # capacity limit).  +Grid shortest-metric walks on the
        # paper's shells stay well under 64 hops; only fault
        # deflections ever exceed it.
        cap = min(self.max_hops + 1, 64)
        paths = np.empty((n, cap), dtype=np.int32)
        out = BatchRouteResult(n, paths)
        for lo in range(0, n, _CHUNK_PACKETS):
            hi = min(n, lo + _CHUNK_PACKETS)
            self._route_chunk_kernel(
                kernel, table, src[lo:hi], dlat[lo:hi], dlon[lo:hi],
                out.delivered[lo:hi], out.degraded[lo:hi],
                out.delay_s[lo:hi], out.distance_km[lo:hi],
                out.path_len[lo:hi], out.fallback[lo:hi], paths[lo:hi])
        return self._finish(out, src, dlat, dlon, t)

    # -- the epoch sweep -------------------------------------------------------

    def route_sweep(self, src_sats: Sequence[int],
                    dest_lats: Sequence[float],
                    dest_lons: Sequence[float],
                    ts: Sequence[float],
                    avoid_links: Optional[Set[FrozenSet[int]]] = None
                    ) -> BatchRouteResult:
        """Route ``(N,)`` packets, each at its *own* epoch ``ts[i]``.

        The time-sweeping face of the batch plane: packets are grouped
        by epoch, each epoch's wave runs through one
        :meth:`route_batch` call against that epoch's next-hop table,
        and the per-epoch results scatter back into one flat
        :class:`BatchRouteResult` **in input order**.  Packets are
        independent, so the grouping is bitwise neutral: element ``i``
        equals ``GeospatialRouter.route(src[i], lat[i], lon[i],
        ts[i])`` exactly, which is what the serial-vs-sweep
        equivalence suite asserts.

        The table LRU is sized to the sweep before the first wave
        routes: a 24-epoch sweep over the default 8-entry cache would
        otherwise evict every table it builds before a second pass
        (a repeated sweep, or the scalar fallback of a later epoch)
        could reuse it.  The capacity only grows, and sweeps that
        revisit their epochs rebuild nothing (``routing.table_builds``
        counts exactly one build per distinct ``(t, fault_epoch)``).
        """
        src = self._check_sources(src_sats)
        dlat = np.ascontiguousarray(np.asarray(dest_lats, dtype=float))
        dlon = np.ascontiguousarray(np.asarray(dest_lons, dtype=float))
        t_arr = np.asarray(ts, dtype=float)
        if not (src.shape == dlat.shape == dlon.shape == t_arr.shape
                and src.ndim == 1):
            raise ValueError(
                "src/dest/ts arrays must share one (N,) shape")
        _check_destinations(dlat, dlon)
        if t_arr.size and not (math.isfinite(float(t_arr.min()))
                               and math.isfinite(float(t_arr.max()))):
            raise ValueError(EPOCH_CONTRACT)
        n = src.shape[0]
        self._count("routing.sweeps")
        if n == 0:
            return BatchRouteResult(0, path_len=0)
        epochs, inverse = np.unique(t_arr, return_inverse=True)
        self._count("routing.sweep_epochs", int(epochs.size))
        if int(epochs.size) > self._table_cache_size:
            self._table_cache_size = int(epochs.size)
        # Build every epoch's snapshot up front through the
        # sweep-sized prefetch, so neither the table builds below nor
        # the scalar fallbacks inside them can thrash the snapshot LRU
        # on sweeps wider than its default capacity.
        snapshots_for(self.topology.propagator,
                      [float(t) for t in epochs])

        out: Optional[BatchRouteResult] = None
        for k in range(epochs.size):
            sel = np.nonzero(inverse == k)[0]
            wave = self.route_batch(src[sel], dlat[sel], dlon[sel],
                                    float(epochs[k]),
                                    avoid_links=avoid_links)
            if out is None:
                # Merge the *raw* per-wave path buffers: only the
                # first ``path_len`` cells of a row are meaningful
                # either way, and -1 padding of everything else waits
                # for first path_buffer access (exactly the
                # route_batch kernel-lane policy).
                out = BatchRouteResult(n, np.empty(
                    (n, wave._paths.shape[1]), dtype=np.int32))
            out._scatter(sel, wave)
        assert out is not None
        return out

    def sweep_trials(self, src: Tuple[float, float],
                     dst: Tuple[float, float],
                     ts: Sequence[float]
                     ) -> Tuple[np.ndarray, BatchRouteResult]:
        """Relay convenience: one packet per epoch from a ground source.

        For every epoch ``t`` the serving satellite over the ground
        point ``src`` is looked up on that epoch's snapshot (the same
        ``snapshot_for(...).serving_satellite`` read the scalar relay
        loop performs) and a packet is routed from it to the ground
        destination ``dst`` through :meth:`route_sweep`.  Epochs whose
        source point is uncovered are not routed: their slots come
        back undelivered with zero delay/distance and an empty path
        (``path_len == 0``), matching the scalar pipeline's
        "no serving satellite" trial records.

        Returns ``(src_sats, result)``: the per-epoch serving
        satellite (``-1`` = uncovered) and the flat epoch-aligned
        :class:`BatchRouteResult`.
        """
        ts_list = [float(t) for t in ts]
        n = len(ts_list)
        snaps = snapshots_for(self.topology.propagator, ts_list)
        src_sats = np.fromiter(
            (snap.serving_satellite(src[0], src[1]) for snap in snaps),
            dtype=np.int64, count=n)
        routed = np.nonzero(src_sats >= 0)[0]
        wave = self.route_sweep(
            src_sats[routed],
            np.full(routed.size, dst[0]), np.full(routed.size, dst[1]),
            np.asarray(ts_list, dtype=float)[routed])
        if routed.size == n:
            return src_sats, wave
        out = BatchRouteResult(n, path_len=0)
        out._scatter(routed, wave)
        return src_sats, out

    def _route_chunk_kernel(self, kernel: ctypes.CDLL,
                            table: NextHopTable, src: np.ndarray,
                            dlat: np.ndarray, dlon: np.ndarray,
                            delivered: np.ndarray, degraded: np.ndarray,
                            delay: np.ndarray, distance: np.ndarray,
                            path_len: np.ndarray, fallback: np.ndarray,
                            paths: np.ndarray) -> None:
        """One chunk through the compiled per-packet walk.

        Same decision structure and float64 arithmetic as the
        reference walk (see ``_walk_kernel``); scatters into the
        output views and writes each packet's path into its row of
        ``paths`` (a contiguous row-slice of the batch buffer; only
        the first ``path_len`` cells of a row are touched).
        """
        n = src.shape[0]
        self._count("routing.kernel_packets", n)
        theta = self.scalar.coverage_angle
        c = self.topology.constellation
        a0, g0, a1, g1 = self.scalar.system.both_representations_batch(
            dlat, dlon)
        cos_dlat = np.cos(dlat)
        unit_x = cos_dlat * np.cos(dlon)
        unit_y = cos_dlat * np.sin(dlon)
        unit_z = np.sin(dlat)
        cap = paths.shape[1]
        edge = table.edge_up

        def ptr(array: np.ndarray) -> ctypes.c_void_p:
            return ctypes.c_void_p(array.ctypes.data)

        kernel.walk_chunk(
            n, self.max_hops, cap,
            1 if self._full_torus else 0,
            1 if table.healthy else 0,
            theta, theta * self.scalar.degraded_slack,
            math.cos(theta) + _COVERAGE_GUARD,
            math.cos(theta) - _COVERAGE_GUARD,
            c.delta_raan, c.delta_phase,
            ptr(src), ptr(a0), ptr(g0), ptr(a1), ptr(g1),
            ptr(dlat), ptr(dlon),
            ptr(unit_x), ptr(unit_y), ptr(unit_z),
            ptr(table.alpha), ptr(table.gamma),
            ptr(table.sub_lat), ptr(table.sub_lon),
            ptr(table.unit_x), ptr(table.unit_y), ptr(table.unit_z),
            ptr(table.neighbors), ptr(table.hop_km),
            ptr(table.hop_delay_s),
            ptr(edge) if edge is not None else None,
            ptr(delivered), ptr(degraded), ptr(fallback),
            ptr(delay), ptr(distance), ptr(path_len), ptr(paths))

    def _finish(self, out: BatchRouteResult, src: np.ndarray,
                dlat: np.ndarray, dlon: np.ndarray, t: float,
                avoid_links: Optional[Set[FrozenSet[int]]] = None,
                whole_wave: bool = False) -> BatchRouteResult:
        """Route the flagged packets of ``out`` with the reference walk.

        On the compiled-walk lane each flagged packet's reference walk
        continues the prefix the compiled walk left in ``out`` (its
        first ``path_len`` path cells, ``delay_s`` and
        ``distance_km``).  ``avoid_links`` waves and ``whole_wave``
        walk from the source.  ``whole_wave`` is the lane without a
        compiled walk: every packet takes the reference walk and
        ``fallback`` reports its ``deflected`` bit, which is what the
        compiled walk's flags mean -- so the mask (and
        ``routing.scalar_fallbacks``) does not depend on whether this
        host could build the kernel.
        """
        flagged = (np.arange(len(out)) if whole_wave
                   else np.nonzero(out.fallback)[0])
        resume = not (whole_wave or avoid_links)
        for index in flagged:
            walked = None
            if resume:
                walked = RouteResult(
                    False, out._paths[index, :out.path_len[index]].tolist(),
                    float(out.delay_s[index]),
                    float(out.distance_km[index]))
            result = self.scalar.route(
                int(src[index]), float(dlat[index]), float(dlon[index]),
                t, avoid_links=avoid_links, walked=walked)
            out.delivered[index] = result.delivered
            out.degraded[index] = result.degraded
            out.delay_s[index] = result.delay_s
            out.distance_km[index] = result.distance_km
            if whole_wave:
                out.fallback[index] = result.deflected
            node_count = len(result.path)
            out._widen(node_count)
            out._paths[index, :node_count] = result.path
            out._paths[index, node_count:] = -1
            out.path_len[index] = node_count
        self._count("routing.scalar_fallbacks",
                    int(np.count_nonzero(out.fallback)))
        return out


def _check_destinations(dlat: np.ndarray, dlon: np.ndarray) -> None:
    """Raise unless every destination meets ``DESTINATION_CONTRACT``.

    Four reductions, no temporaries; a NaN anywhere surfaces in the
    min/max and fails the comparison.
    """
    if dlat.size and not (
            -HALF_PI <= float(dlat.min())
            and float(dlat.max()) <= HALF_PI
            and math.isfinite(float(dlon.min()))
            and math.isfinite(float(dlon.max()))):
        raise ValueError(DESTINATION_CONTRACT)
