"""Vectorized batch packet-routing plane (Algorithm 1 as array programs).

The scalar :class:`~repro.topology.routing.GeospatialRouter` walks one
packet at a time through a Python-level hop loop; at Starlink scale
that caps routing throughput orders of magnitude below what the
stateless design can sustain.  This module routes an ``(N,)`` *batch*
of packets per call: every per-hop decision of Algorithm 1 -- coverage
test, both-representation hop offsets, dominant-dimension direction
pick, neighbour gather, delay accumulation -- is one NumPy operation
over the still-active packets, so the Python interpreter executes a
handful of statements per *hop level* instead of per packet-hop.

Bit-match contract
==================
For every packet the batch plane either (a) replays the scalar
floating-point arithmetic operation-for-operation (same haversine
expression tree, same ``wrap_signed`` modulo form, same strict-``<``
representation pick, same hop-length formula), or (b) detects that the
packet needs a code path the vectorized walk does not model -- grid
deflection around faults, caller-supplied ``avoid_links``, or a node
revisit on seam (non-full-torus) constellations -- and *falls back* to
the scalar router for that packet alone.  Either way
``route_batch(...).results()`` is element-for-element identical
(paths, verdicts, delays, distances) to calling
``GeospatialRouter.route`` in a loop, which is what the equivalence
suite asserts.

Per-epoch next-hop tables
=========================
All per-satellite state the walk gathers from -- runtime (alpha,
gamma) coordinates, sub-satellite points, the ``(N, 4)`` +Grid
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

from ..constants import SPEED_OF_LIGHT_KM_S, TWO_PI
from ..obs.metrics import MetricsRegistry
from ..orbits.snapshot import (
    ConstellationSnapshot,
    grid_neighbor_table,
    snapshot_for,
    snapshots_for,
)
from ._walk_kernel import load_kernel
from .grid import GridTopology
from .routing import GeospatialRouter, RouteResult

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

#: Column order of the neighbour/hop tables (matches
#: :data:`repro.orbits.snapshot.GRID_DIRECTIONS`).
_UP, _DOWN, _LEFT, _RIGHT = 0, 1, 2, 3

#: Half-width of the guard band (in cosine space) around the coverage
#: threshold inside which the dot-product screen defers to the exact
#: scalar haversine.  Both formulas agree with the true central angle
#: to ~1e-14, so 1e-9 is over a thousand times wider than any possible
#: disagreement -- decisions outside the band are provably identical.
_COVERAGE_GUARD = 1e-9


def _wrap_signed_diff(diff: np.ndarray) -> np.ndarray:
    """Bit-exact :func:`repro.orbits.coordinates.wrap_signed` for
    angle *differences* in ``(-4*pi, 2*pi)``.

    The scalar computes ``diff % TWO_PI`` then conditionally subtracts
    ``TWO_PI``.  For ``|diff| < TWO_PI`` the ``fmod`` inside Python's
    ``%`` is exact (returns ``diff`` unchanged), so the modulo equals
    ``diff + TWO_PI`` (one rounded add) when negative and ``diff``
    otherwise.  For ``diff`` in ``(-4*pi, -2*pi]`` the first
    ``+TWO_PI`` is *exact* by the Sterbenz lemma (the operands are
    within a factor of two), so applying the conditional add twice
    reproduces ``%`` bit-for-bit -- without the far costlier fmod.
    All (alpha, gamma) difference inputs here lie in that range:
    minuends come from ``wrap_angle``/``asin``/``pi - asin`` (all
    ``>= -pi/2``) and subtrahends from ``wrap_angle`` (``< 2*pi``).
    """
    wrapped = np.where(diff < 0.0, diff + TWO_PI, diff)
    negative = wrapped < 0.0
    if negative.any():
        wrapped[negative] += TWO_PI
    wrapped[wrapped > math.pi] -= TWO_PI
    return wrapped


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

    def __init__(self, delivered: np.ndarray, degraded: np.ndarray,
                 delay_s: np.ndarray, distance_km: np.ndarray,
                 path_buffer: np.ndarray, path_len: np.ndarray,
                 fallback: np.ndarray, normalized: bool = True):
        self.delivered = delivered
        self.degraded = degraded
        self.delay_s = delay_s
        self.distance_km = distance_km
        self.path_len = path_len
        self.fallback = fallback
        self._paths = path_buffer
        self._normalized = normalized

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
    geometry and ``degraded_slack``) both as the per-packet fallback
    for paths the array walk does not model and as the reference the
    equivalence suite compares against.
    """

    def __init__(self, topology: GridTopology, max_hops: int = 256,
                 metrics: Optional[MetricsRegistry] = None,
                 table_cache_size: int = 8,
                 chunk_size: int = 65536,
                 use_kernel: Optional[bool] = None):
        self.topology = topology
        self.scalar = GeospatialRouter(topology, max_hops=max_hops)
        self.max_hops = max_hops
        self.metrics = metrics
        #: Packets per lock-step walk; large batches are split so the
        #: per-hop working set stays cache-resident.  Results are
        #: independent per packet, so any chunking is bitwise neutral.
        self.chunk_size = max(1, chunk_size)
        #: ``None``: use the compiled walk kernel when one is
        #: available, else the NumPy walk (they are bit-identical).
        #: ``True``: require the kernel; ``False``: never use it.
        self._use_kernel = use_kernel
        self._kernel_lib: Optional[ctypes.CDLL] = None
        self._kernel_resolved = False
        self._table_cache_size = max(1, table_cache_size)
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

    def _kernel_handle(self) -> Optional[ctypes.CDLL]:
        """The compiled walk kernel, or ``None`` for the NumPy walk."""
        if self._use_kernel is False:
            return None
        if not self._kernel_resolved:
            self._kernel_resolved = True
            self._kernel_lib = load_kernel()
        if self._use_kernel is True and self._kernel_lib is None:
            raise RuntimeError(
                "use_kernel=True but no compiled walk kernel is "
                "available (no C compiler, failed build, or "
                "REPRO_NO_CKERNEL set)")
        return self._kernel_lib

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

    # -- scalar delegation ----------------------------------------------------

    def route(self, src_sat: int, dest_lat: float, dest_lon: float,
              t: float,
              avoid_links: Optional[Set[FrozenSet[int]]] = None
              ) -> RouteResult:
        """Single-packet routing (delegates to the scalar reference)."""
        self._count("routing.packets", plane="scalar")
        return self.scalar.route(src_sat, dest_lat, dest_lon, t,
                                 avoid_links=avoid_links)

    # -- the batch walk --------------------------------------------------------

    def route_batch(self, src_sats: Sequence[int],
                    dest_lats: Sequence[float],
                    dest_lons: Sequence[float], t: float,
                    avoid_links: Optional[Set[FrozenSet[int]]] = None
                    ) -> BatchRouteResult:
        """Route ``(N,)`` packets in lock-step vectorized hops.

        All packets share one epoch ``t``.  Per hop level the walk
        does: one gathered haversine coverage test, one
        both-representation offset computation, one direction pick,
        one neighbour/hop-length gather -- each a single NumPy call
        over the packets still in flight.  Packets that hit a
        non-vectorized code path (deflection, ``avoid_links``, seam
        revisit) are recomputed exactly by the scalar router.
        """
        src = np.ascontiguousarray(np.asarray(src_sats, dtype=np.int64))
        dlat = np.ascontiguousarray(np.asarray(dest_lats, dtype=float))
        dlon = np.ascontiguousarray(np.asarray(dest_lons, dtype=float))
        if not (src.shape == dlat.shape == dlon.shape and src.ndim == 1):
            raise ValueError("src/dest arrays must share one (N,) shape")
        n = src.shape[0]
        total = self.topology.constellation.total_satellites
        if n and (int(src.min()) < 0 or int(src.max()) >= total):
            raise ValueError("source satellite index out of range")
        self._count("routing.batches")
        self._count("routing.packets", n, plane="batch")
        if self.metrics is not None:
            self.metrics.histogram(
                "routing.batch_size",
                buckets=BATCH_SIZE_BUCKETS).observe(float(n))

        delivered = np.zeros(n, dtype=bool)
        degraded = np.zeros(n, dtype=bool)
        fallback = np.zeros(n, dtype=bool)
        delay = np.zeros(n, dtype=float)
        distance = np.zeros(n, dtype=float)
        path_len = np.ones(n, dtype=np.int32)

        if n == 0 or avoid_links:
            paths = np.full((n, 1), -1, dtype=np.int32)
            if n:
                paths[:, 0] = src
                # Caller-supplied link avoidance composes with the
                # visited set inside the scalar walk; rare (mid-flight
                # reroutes), so those packets take the exact scalar
                # path wholesale.
                fallback[:] = True
            return self._finish(src, dlat, dlon, t, avoid_links,
                                delivered, degraded, delay, distance,
                                paths, path_len, fallback)

        table = self._table(t)
        kernel = self._kernel_handle()
        if kernel is not None:
            # One raw path buffer for the whole batch; each chunk's
            # rows are a contiguous slice the kernel writes in place,
            # so there is no per-chunk stitch copy at all.  -1
            # normalisation of never-written cells happens lazily on
            # first path_buffer access (see BatchRouteResult).
            #
            # The capacity is deliberately small: an uninitialised
            # 64-column buffer costs far less than a -1-filled
            # (max_hops + 1)-column one, and the kernel flags the rare
            # longer walk for exact scalar recompute (which has no
            # capacity limit).  +Grid shortest-metric walks on the
            # paper's shells stay well under 64 hops; only fault
            # deflections ever exceed it.
            cap = min(self.max_hops + 1, 64)
            paths = np.empty((n, cap), dtype=np.int32)
            for lo in range(0, n, self.chunk_size):
                hi = min(n, lo + self.chunk_size)
                self._route_chunk_kernel(
                    kernel, table, src[lo:hi], dlat[lo:hi], dlon[lo:hi],
                    delivered[lo:hi], degraded[lo:hi], delay[lo:hi],
                    distance[lo:hi], path_len[lo:hi], fallback[lo:hi],
                    paths[lo:hi])
            return self._finish(src, dlat, dlon, t, avoid_links,
                                delivered, degraded, delay, distance,
                                paths, path_len, fallback,
                                normalized=False)
        if n <= self.chunk_size:
            paths = self._route_chunk(table, src, dlat, dlon, delivered,
                                      degraded, delay, distance,
                                      path_len, fallback)
        else:
            # Chunking keeps the per-hop working set inside the cache
            # hierarchy; per-packet results are independent, so chunked
            # and unchunked batches are bitwise identical.
            chunk_paths = []
            for lo in range(0, n, self.chunk_size):
                hi = min(n, lo + self.chunk_size)
                chunk_paths.append(self._route_chunk(
                    table, src[lo:hi], dlat[lo:hi], dlon[lo:hi],
                    delivered[lo:hi], degraded[lo:hi], delay[lo:hi],
                    distance[lo:hi], path_len[lo:hi], fallback[lo:hi]))
            width = max(p.shape[1] for p in chunk_paths)
            paths = np.empty((n, width), dtype=np.int32)
            for k, chunk in enumerate(chunk_paths):
                lo = k * self.chunk_size
                hi = lo + chunk.shape[0]
                paths[lo:hi, :chunk.shape[1]] = chunk
                if chunk.shape[1] < width:
                    paths[lo:hi, chunk.shape[1]:] = -1
        return self._finish(src, dlat, dlon, t, avoid_links, delivered,
                            degraded, delay, distance, paths, path_len,
                            fallback)

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
        src = np.ascontiguousarray(np.asarray(src_sats, dtype=np.int64))
        dlat = np.ascontiguousarray(np.asarray(dest_lats, dtype=float))
        dlon = np.ascontiguousarray(np.asarray(dest_lons, dtype=float))
        t_arr = np.asarray(ts, dtype=float)
        if not (src.shape == dlat.shape == dlon.shape == t_arr.shape
                and src.ndim == 1):
            raise ValueError(
                "src/dest/ts arrays must share one (N,) shape")
        n = src.shape[0]
        self._count("routing.sweeps")
        if n == 0:
            return BatchRouteResult(
                np.zeros(0, dtype=bool), np.zeros(0, dtype=bool),
                np.zeros(0, dtype=float), np.zeros(0, dtype=float),
                np.full((0, 1), -1, dtype=np.int32),
                np.zeros(0, dtype=np.int32), np.zeros(0, dtype=bool))
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

        delivered = np.zeros(n, dtype=bool)
        degraded = np.zeros(n, dtype=bool)
        fallback = np.zeros(n, dtype=bool)
        delay = np.zeros(n, dtype=float)
        distance = np.zeros(n, dtype=float)
        path_len = np.ones(n, dtype=np.int32)
        paths: Optional[np.ndarray] = None
        for k in range(epochs.size):
            sel = np.nonzero(inverse == k)[0]
            wave = self.route_batch(src[sel], dlat[sel], dlon[sel],
                                    float(epochs[k]),
                                    avoid_links=avoid_links)
            delivered[sel] = wave.delivered
            degraded[sel] = wave.degraded
            fallback[sel] = wave.fallback
            delay[sel] = wave.delay_s
            distance[sel] = wave.distance_km
            path_len[sel] = wave.path_len
            # Merge the *raw* per-wave path buffers: only the first
            # ``path_len`` cells of a row are meaningful either way,
            # and ``normalized=False`` below defers the -1 padding of
            # everything else to first path_buffer access (exactly the
            # route_batch kernel-path policy).
            rows = wave._paths
            if paths is None:
                paths = np.empty((n, rows.shape[1]), dtype=np.int32)
            elif rows.shape[1] > paths.shape[1]:
                wider = np.empty((n, rows.shape[1]), dtype=np.int32)
                wider[:, :paths.shape[1]] = paths
                paths = wider
            paths[sel, :rows.shape[1]] = rows
        assert paths is not None
        return BatchRouteResult(delivered, degraded, delay, distance,
                                paths, path_len, fallback,
                                normalized=False)

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
        delivered = np.zeros(n, dtype=bool)
        degraded = np.zeros(n, dtype=bool)
        fallback = np.zeros(n, dtype=bool)
        delay = np.zeros(n, dtype=float)
        distance = np.zeros(n, dtype=float)
        path_len = np.zeros(n, dtype=np.int32)
        buffer = wave.path_buffer if routed.size else np.full(
            (0, 1), -1, dtype=np.int32)
        paths = np.full((n, max(buffer.shape[1], 1)), -1, dtype=np.int32)
        delivered[routed] = wave.delivered
        degraded[routed] = wave.degraded
        fallback[routed] = wave.fallback
        delay[routed] = wave.delay_s
        distance[routed] = wave.distance_km
        path_len[routed] = wave.path_len
        if routed.size:
            paths[routed, :buffer.shape[1]] = buffer
        return src_sats, BatchRouteResult(delivered, degraded, delay,
                                          distance, paths, path_len,
                                          fallback)

    def _route_chunk_kernel(self, kernel: ctypes.CDLL,
                            table: NextHopTable, src: np.ndarray,
                            dlat: np.ndarray, dlon: np.ndarray,
                            delivered: np.ndarray, degraded: np.ndarray,
                            delay: np.ndarray, distance: np.ndarray,
                            path_len: np.ndarray, fallback: np.ndarray,
                            paths: np.ndarray) -> None:
        """One chunk through the compiled per-packet walk.

        Same decision structure and float64 arithmetic as
        :meth:`_route_chunk` (see ``_walk_kernel``); scatters into the
        same output views and writes each packet's path into its row
        of ``paths`` (a contiguous row-slice of the batch buffer; only
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

    def _route_chunk(self, table: NextHopTable, src: np.ndarray,
                     dlat: np.ndarray, dlon: np.ndarray,
                     delivered: np.ndarray, degraded: np.ndarray,
                     delay: np.ndarray, distance: np.ndarray,
                     path_len: np.ndarray, fallback: np.ndarray
                     ) -> np.ndarray:
        """Lock-step walk of one chunk; scatters into the output views
        and returns the chunk's path buffer."""
        n = src.shape[0]
        theta = self.scalar.coverage_angle
        slack_theta = theta * self.scalar.degraded_slack
        cos_in = math.cos(theta) + _COVERAGE_GUARD
        cos_out = math.cos(theta) - _COVERAGE_GUARD
        c = self.topology.constellation
        delta_raan = c.delta_raan
        delta_phase = c.delta_phase
        a0, g0, a1, g1 = self.scalar.system.both_representations_batch(
            dlat, dlon)
        cos_dlat = np.cos(dlat)
        unit_x = cos_dlat * np.cos(dlon)
        unit_y = cos_dlat * np.sin(dlon)
        unit_z = np.sin(dlat)

        capacity = min(self.max_hops + 1, 64)
        paths = np.full((n, capacity), -1, dtype=np.int32)
        paths[:, 0] = src

        # Compacted in-flight state: element k of every array below is
        # the same packet; ``idx`` maps it back to its chunk slot.
        # Retired packets are filtered out so each hop level touches
        # only packets still walking.
        idx = np.arange(n)
        cur = src.astype(np.int32)
        delay_a = np.zeros(n, dtype=float)
        dist_a = np.zeros(n, dtype=float)

        def _compact(keep: np.ndarray) -> None:
            nonlocal idx, cur, delay_a, dist_a, a0, g0, a1, g1
            nonlocal unit_x, unit_y, unit_z
            idx = idx[keep]
            cur = cur[keep]
            delay_a = delay_a[keep]
            dist_a = dist_a[keep]
            a0 = a0[keep]
            g0 = g0[keep]
            a1 = a1[keep]
            g1 = g1[keep]
            unit_x = unit_x[keep]
            unit_y = unit_y[keep]
            unit_z = unit_z[keep]

        for step in range(self.max_hops):
            if idx.size == 0:
                break
            # Lines 1-2: coverage.  Screen with a dot product against
            # the destination radial (monotone in the central angle);
            # only packets inside the guard band around the threshold
            # re-test with the exact scalar haversine, so the decision
            # is bit-identical while the hot path stays transcendental-
            # free.
            dot = table.unit_x[cur] * unit_x
            dot += table.unit_y[cur] * unit_y
            dot += table.unit_z[cur] * unit_z
            covered = dot >= cos_in
            border = (dot > cos_out) & ~covered
            if border.any():
                b = np.nonzero(border)[0]
                covered[b] = self._exact_angles(
                    table, cur[b], dlat[idx[b]], dlon[idx[b]]) <= theta
            if covered.any():
                done = idx[covered]
                delivered[done] = True
                delay[done] = delay_a[covered]
                distance[done] = dist_a[covered]
                path_len[done] = step + 1
                _compact(~covered)
                if idx.size == 0:
                    break

            # Lines 3-10: both-representation offsets, strict-< pick.
            # The four signed differences are wrapped as one stacked
            # (4, m) program; only the gamma-ascending row (1) can sit
            # below -2*pi and need the second (exact, Sterbenz) add.
            alpha_s = table.alpha[cur]
            gamma_s = table.gamma[cur]
            diffs = np.empty((4, idx.size))
            np.subtract(a0, alpha_s, out=diffs[0])
            np.subtract(g0, gamma_s, out=diffs[1])
            np.subtract(a1, alpha_s, out=diffs[2])
            np.subtract(g1, gamma_s, out=diffs[3])
            wrapped = np.where(diffs < 0.0, diffs + TWO_PI, diffs)
            row1 = wrapped[1]
            negative = row1 < 0.0
            if negative.any():
                row1[negative] += TWO_PI
            offsets = np.where(wrapped > math.pi,
                               wrapped - TWO_PI, wrapped)
            offsets[0] /= delta_raan
            offsets[1] /= delta_phase
            offsets[2] /= delta_raan
            offsets[3] /= delta_phase
            magnitudes = np.abs(offsets)
            use_desc = (magnitudes[2] + magnitudes[3]
                        < magnitudes[0] + magnitudes[1])
            da = np.where(use_desc, offsets[2], offsets[0])
            dg = np.where(use_desc, offsets[3], offsets[1])
            abs_da = np.where(use_desc, magnitudes[2], magnitudes[0])
            abs_dg = np.where(use_desc, magnitudes[3], magnitudes[1])

            centered = (abs_da < 0.5) & (abs_dg < 0.5)
            if centered.any():
                cen = np.nonzero(centered)[0]
                near = (self._exact_angles(table, cur[cen],
                                           dlat[idx[cen]],
                                           dlon[idx[cen]])
                        <= slack_theta)
                done = idx[cen[near]]
                delivered[done] = True
                degraded[done] = True
                delay[done] = delay_a[cen[near]]
                distance[done] = dist_a[cen[near]]
                path_len[done] = step + 1
                # Centered but not even nearly covered: the scalar
                # walk deflects sideways -- recompute exactly.
                fallback[idx[cen[~near]]] = True
                keep = ~centered
                _compact(keep)
                if idx.size == 0:
                    break
                da = da[keep]
                dg = dg[keep]
                abs_da = abs_da[keep]
                abs_dg = abs_dg[keep]

            direction = np.where(
                abs_da > abs_dg,
                np.where(da > 0, _RIGHT, _LEFT),
                np.where(dg > 0, _UP, _DOWN))
            nxt = table.neighbors[cur, direction]

            if not table.healthy:
                assert table.edge_up is not None
                ok = table.edge_up[cur, direction]
                if not ok.all():
                    # Preferred link or endpoint is dead: the scalar
                    # walk deflects with the visited set -- recompute.
                    fallback[idx[~ok]] = True
                    _compact(ok)
                    if idx.size == 0:
                        break
                    direction = direction[ok]
                    nxt = nxt[ok]

            if not self._full_torus:
                # Seam constellations: greedy walks can revisit; the
                # scalar router then deflects.  Detect by prefix
                # membership (every active packet has exactly ``step``
                # hops, so the prefix is columns [0, step]) and hand
                # those packets to the scalar path.
                revisit = (paths[idx, :step + 1]
                           == nxt[:, None]).any(axis=1)
                if revisit.any():
                    fallback[idx[revisit]] = True
                    keep = ~revisit
                    _compact(keep)
                    if idx.size == 0:
                        break
                    direction = direction[keep]
                    nxt = nxt[keep]

            # Per-edge delay precomputed at table build with the same
            # operands/rounding as the scalar's per-hop divide.
            delay_a += table.hop_delay_s[cur, direction]
            dist_a += table.hop_km[cur, direction]
            if step + 1 >= capacity:
                grow = min(self.max_hops + 1, capacity * 2)
                paths = np.concatenate(
                    [paths, np.full((n, grow - capacity), -1,
                                    dtype=np.int32)], axis=1)
                capacity = grow
            paths[idx, step + 1] = nxt
            cur = nxt

        if idx.size:
            # max_hops levels exhausted: undelivered, with the partial
            # path/delay the walk accumulated (scalar semantics).
            delay[idx] = delay_a
            distance[idx] = dist_a
            path_len[idx] = self.max_hops + 1
        return paths

    def _exact_angles(self, table: NextHopTable, sats: np.ndarray,
                      lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Exact scalar-order haversine central angles for a subset."""
        sub_lat = table.sub_lat[sats]
        sd_lat = np.sin((lats - sub_lat) / 2.0)
        sd_lon = np.sin((lons - table.sub_lon[sats]) / 2.0)
        h = (sd_lat * sd_lat
             + np.cos(sub_lat) * np.cos(lats) * (sd_lon * sd_lon))
        np.clip(h, 0.0, 1.0, out=h)
        return 2.0 * np.arcsin(np.sqrt(h))

    def _finish(self, src: np.ndarray, dlat: np.ndarray,
                dlon: np.ndarray, t: float,
                avoid_links: Optional[Set[FrozenSet[int]]],
                delivered: np.ndarray, degraded: np.ndarray,
                delay: np.ndarray, distance: np.ndarray,
                paths: np.ndarray, path_len: np.ndarray,
                fallback: np.ndarray,
                normalized: bool = True) -> BatchRouteResult:
        """Recompute flagged packets with the scalar reference walk."""
        flagged = np.nonzero(fallback)[0]
        self._count("routing.scalar_fallbacks", int(flagged.size))
        for index in flagged:
            result = self.scalar.route(
                int(src[index]), float(dlat[index]), float(dlon[index]),
                t, avoid_links=avoid_links)
            delivered[index] = result.delivered
            degraded[index] = result.degraded
            delay[index] = result.delay_s
            distance[index] = result.distance_km
            node_count = len(result.path)
            if node_count > paths.shape[1]:
                paths = np.concatenate(
                    [paths, np.full((paths.shape[0],
                                     node_count - paths.shape[1]),
                                    -1, dtype=np.int32)], axis=1)
            paths[index, :node_count] = result.path
            paths[index, node_count:] = -1
            path_len[index] = node_count
        return BatchRouteResult(delivered, degraded, delay, distance,
                                paths, path_len, fallback,
                                normalized=normalized)


def batch_route_pairs(router: BatchGeoRouter,
                      pairs: Sequence[Tuple[int, float, float]],
                      t: float) -> List[RouteResult]:
    """Convenience: route ``(src, lat, lon)`` tuples, scalar results."""
    if not pairs:
        return []
    src = [p[0] for p in pairs]
    lats = [p[1] for p in pairs]
    lons = [p[2] for p in pairs]
    return router.route_batch(src, lats, lons, t).results()
