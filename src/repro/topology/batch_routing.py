"""Batch packet-routing plane: Algorithm 1 over ``(N,)`` packet waves.

Algorithm 1 exists exactly twice in this repo.  The *reference walk*
is the scalar :class:`~repro.topology.routing.GeospatialRouter`: one
packet at a time through a Python hop loop, every code path modelled
(deflection around faults, seam revisits).  The
*compiled walk* (:mod:`repro.topology._walk_kernel`) is a per-packet C
loop over shared per-epoch arrays that replays the reference
arithmetic operation for operation and *flags* any packet that needs
a path it does not model.  :meth:`BatchGeoRouter.route_batch` runs the
compiled walk over the wave, and then the two walks take turns on each
flagged packet: from the prefix the compiled walk handed over, the
reference walk takes a *deflection run* (the hop at the flag and every
hop after it that leaves Algorithm 1's preferred direction, or the
drop or delivery verdict), and the compiled walk resumes the longer
prefix up to its next flag, round after round over the packets still
flagged.  Every prefix is the reference walk's own bit for bit, so
only the deflection hops run in Python; a prefix at or past the
compiled walk's 64-node cap stays with the reference walk to its
verdict.  On a host without the compiled walk (no C compiler, failed
build, ``REPRO_NO_CKERNEL``) the whole wave takes the reference walk
from the source.  Either way each packet's
``route_batch(...).result(i)`` is identical (path, verdict, delay,
distance) to ``GeospatialRouter.route`` on that packet, which is what
the equivalence suite asserts on both lanes.

``BatchRouteResult.fallback[i]`` means one thing on both lanes: packet
``i`` left Algorithm 1's preferred direction (centered but uncovered,
dead preferred edge, seam revisit) -- the compiled walk's flag, and
``RouteResult.deflected`` of the reference walk.  One flag stays
engine-specific: a path longer than the compiled walk's 64-node cap is
flagged by the compiled walk only.

Paths as moves
==============
A hop of Algorithm 1 takes one of the four ``grid_neighbor_table``
columns, so a packet's path is its source and the columns it took.
:class:`BatchRouteResult` stores exactly that -- an ``int32`` source
per packet and one byte per hop in one flat array -- and
:meth:`BatchRouteResult.path` decodes a path by walking the wiring
from the source.  The compiled walk writes the columns directly; the
reference walk's node paths are encoded in one vectorised pass per
wave (:func:`_encode_moves`).

One state per epoch
===================
Both walks read one :class:`~repro.topology.grid.TopologyState`, the
grid's ``state(t)`` for the wave's ``(t, fault_epoch)``: the ``(N,
4)`` wiring (``grid_neighbor_table``, per shell shape), ISL lengths
(``hop_lengths_km()``, per snapshot) and the edge mask (per fault
epoch).  The few arrays only the compiled walk wants (unit vectors,
per-edge delays) are built on the state by the first wave routed at
it, which is what ``routing.table_builds`` counts; a later wave at
the same state is a ``routing.table_cache_hits``.  Every fault bumps
``fault_epoch``, so no wave after a fault reads a pre-fault state,
and a wave keeps the state it started with to its end.

Chunks on threads
=================
A wave larger than ``_CHUNK_PACKETS`` is cut into chunks, and the
chunks run on up to ``usable_cores()`` threads: the ctypes call and
the NumPy prep release the GIL, and each chunk writes disjoint slices
of the outputs (its rows, and its own region of the flat move array),
so the result is the same at any thread count.  The
reference walk (``_finish``) and every metrics call stay on the
calling thread.

Epoch sweeps
============
Workloads that route *across* time -- the Fig. 18b relay pipeline
samples one packet per epoch over an orbital period, the cohort
engine probes offered load over a horizon -- go through
:meth:`BatchGeoRouter.route_sweep`: packets carry per-element epochs,
are grouped by epoch, and each epoch's wave routes in one
``route_batch``-equivalent call with the results scattered back in
input order, one walk-array build per distinct epoch.
"""

from __future__ import annotations

import ctypes
import math
import mmap
from array import array
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..constants import HALF_PI, TWO_PI
from ..obs.metrics import MetricsRegistry
from ..orbits.snapshot import grid_neighbor_table, snapshot_for
from ._walk_kernel import load_kernel
from .grid import (DESTINATION_CONTRACT, EPOCH_CONTRACT, GridTopology,
                   TopologyState, check_epoch)
from .routing import SOURCE_CONTRACT, GeospatialRouter, RouteResult

__all__ = [
    "BatchGeoRouter",
    "BatchRouteResult",
    "BATCH_SIZE_BUCKETS",
]

#: Histogram buckets for ``routing.batch_size`` (batches span request
#: sizes from single packets to full Monte Carlo sweeps).
BATCH_SIZE_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0,
                      16384.0, 65536.0, 262144.0, 1048576.0)

#: Packets per compiled-walk call: large waves are split so one call's
#: inputs and outputs stay cache-resident, and the chunks of one wave
#: run on up to ``usable_cores()`` threads.  Results are independent per
#: packet, so any chunking and any thread count is bitwise neutral.
_CHUNK_PACKETS = 65536

#: The array size from which NumPy asks the kernel for transparent
#: huge pages (its allocator's threshold).
_HUGE_PAGE_ARRAY = 1 << 22

#: Half-width of the guard band (in cosine space) around the coverage
#: threshold inside which the compiled walk's dot-product screen defers
#: to the exact scalar haversine.  Both formulas agree with the true
#: central angle to ~1e-14, so 1e-9 is over a thousand times wider than
#: any possible disagreement -- decisions outside the band are provably
#: identical.
_COVERAGE_GUARD = 1e-9


class BatchRouteResult:
    """Structure-of-arrays outcome of one ``route_batch`` call.

    Scalar :class:`~repro.topology.routing.RouteResult` objects are
    materialised lazily (:meth:`result` / :meth:`results`): at millions
    of packets per second the per-packet Python objects would cost more
    than the routing itself, and bulk consumers (benchmarks, sweeps,
    the packet layer) only need the arrays.

    A path is its source and its moves.  Every hop of Algorithm 1
    takes one of the four ``grid_neighbor_table`` columns, so packet
    ``i``'s ``path_len[i]`` nodes are its ``int32`` source followed by
    ``path_len[i] - 1`` one-byte columns, back to back in one flat
    ``uint8`` array from ``_offsets[i]`` on.  How packets share the
    flat array is the writer's business (the compiled walk packs each
    chunk from the chunk's region start, a continued packet's moves go
    to the tail, a sweep appends its waves), and bytes no packet claims
    hold garbage, so :meth:`path`, which walks the wiring from the
    source, is the one read API.
    """

    __slots__ = ("delivered", "degraded", "delay_s", "distance_km",
                 "path_len", "fallback", "_source", "_offsets", "_moves",
                 "_used", "_wiring")

    def __init__(self, n: int, wiring: np.ndarray, capacity: int = 0):
        """``n`` undelivered, unflagged packets with empty paths over
        the ``(N, 4)`` wiring, and room for ``capacity`` moves, for a
        router to fill."""
        self.delivered = np.zeros(n, dtype=bool)
        self.degraded = np.zeros(n, dtype=bool)
        self.fallback = np.zeros(n, dtype=bool)
        self.delay_s = np.zeros(n, dtype=float)
        self.distance_km = np.zeros(n, dtype=float)
        self.path_len = np.zeros(n, dtype=np.int32)
        self._source = np.zeros(n, dtype=np.int32)
        self._offsets = np.zeros(n, dtype=np.int64)
        self._moves = _address_space(capacity)
        #: Bytes ``[0, _used)`` may be claimed; appends go after them.
        self._used = 0
        self._wiring = wiring

    def __len__(self) -> int:
        return int(self.delivered.shape[0])

    def _append(self, sel: np.ndarray, moves: np.ndarray,
                starts: np.ndarray, lengths: np.ndarray) -> None:
        """Give packet ``sel[k]`` the ``lengths[k]``-node path whose
        moves are ``moves[starts[k]:]``, copying ``moves`` to the tail
        of the flat array (the sources are the caller's to set)."""
        end = self._used + moves.size
        if end > self._moves.size:
            grown = np.empty(max(end, 2 * self._moves.size), dtype=np.uint8)
            grown[:self._used] = self._moves[:self._used]
            self._moves = grown
        self._moves[self._used:end] = moves
        self._offsets[sel] = starts + self._used
        self.path_len[sel] = lengths
        self._used = end

    def _scatter(self, sel: np.ndarray, wave: "BatchRouteResult") -> None:
        """Store ``wave``'s packets at the indices ``sel``."""
        self._append(sel, wave._moves[:wave._used], wave._offsets,
                     wave.path_len)
        for name in ("delivered", "degraded", "fallback", "delay_s",
                     "distance_km", "_source"):
            getattr(self, name)[sel] = getattr(wave, name)

    @property
    def hops(self) -> np.ndarray:
        """Per-packet hop count (``len(path) - 1``, floored at 0)."""
        return np.maximum(self.path_len - 1, 0)

    def path(self, index: int) -> List[int]:
        """The node path of packet ``index`` as a plain list."""
        length = int(self.path_len[index])
        if length == 0:
            return []
        start = int(self._offsets[index])
        wiring = self._wiring
        node = int(self._source[index])
        path = [node]
        for move in self._moves[start:start + length - 1].tolist():
            node = int(wiring[node, move])
            path.append(node)
        return path

    def result(self, index: int) -> RouteResult:
        """Materialise packet ``index`` as a scalar RouteResult."""
        return RouteResult(
            delivered=bool(self.delivered[index]),
            path=self.path(index),
            delay_s=float(self.delay_s[index]),
            distance_km=float(self.distance_km[index]),
            degraded=bool(self.degraded[index]))


def _ptr(array: np.ndarray) -> int:
    """The data pointer of a contiguous array, for the compiled walk."""
    return array.ctypes.data


def _address(buffer: array) -> int:
    """The data pointer of an ``array.array``, far cheaper to take
    than an ndarray's."""
    return buffer.buffer_info()[0]


def _address_space(size: int) -> np.ndarray:
    """``size`` uninitialised bytes whose untouched pages cost nothing.

    The compiled walk touches only the start of each chunk's region.
    NumPy asks for transparent huge pages on arrays of
    ``_HUGE_PAGE_ARRAY`` bytes and up, which would make each of those
    starts cost whole 2 MiB pages, more or fewer by where the region
    happens to be aligned.  A region that large is a private anonymous
    mapping that refuses huge pages, so it costs exactly the 4 KiB
    pages the walk writes; a smaller one is an ordinary array, which
    keeps it on the heap where a sanitizer sees its bounds.
    """
    if size < _HUGE_PAGE_ARRAY:
        return np.empty(size, dtype=np.uint8)
    region = mmap.mmap(-1, size)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        region.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(region, dtype=np.uint8)


def _encode_moves(wiring: np.ndarray, nodes: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """The moves of the node paths laid back to back in ``nodes``
    (``lengths[k]`` nodes each), laid out the same way: for each hop
    ``a -> b`` the first column ``j`` with ``wiring[a, j] == b``.  Where
    two columns name one node (2-plane and 2-slot shells) either
    decodes to the same path.  Raises ``ValueError`` on a hop between
    satellites that are not +Grid neighbours."""
    hop = np.ones(nodes.size, dtype=bool)
    hop[np.cumsum(lengths[lengths > 0]) - 1] = False
    tails = np.nonzero(hop)[0]
    a, b = nodes[tails], nodes[tails + 1]
    moves = (np.take(wiring, a, axis=0) == b[:, None]).argmax(axis=1)
    if not np.array_equal(np.take(wiring.ravel(), 4 * a + moves), b):
        raise ValueError("a path hop joins satellites that are not "
                         "+Grid neighbours")
    return moves.astype(np.uint8)


class BatchGeoRouter:
    """Algorithm 1 over packet batches, one topology state per wave.

    Wraps a scalar :class:`GeospatialRouter` (sharing its coverage
    geometry and ``degraded_slack``): the reference walk that takes
    the deflection hops of the packets the compiled walk flags, routes
    the whole wave when there is no compiled walk, and is what the
    equivalence suite compares against.
    """

    def __init__(self, topology: GridTopology, max_hops: int = 256,
                 metrics: Optional[MetricsRegistry] = None):
        self.topology = topology
        self.scalar = GeospatialRouter(topology, max_hops=max_hops)
        self.max_hops = max_hops
        #: The compiled walk's per-packet path cap, in nodes: +Grid
        #: walks on the paper's shells stay well under 64 nodes, and
        #: only fault deflections ever exceed it.
        self._cap = min(max_hops + 1, 64)
        self.metrics = metrics
        self._wiring = grid_neighbor_table(topology.constellation)
        #: The wiring as nested lists, for decoding resumed walks.
        self._wiring_rows = self._wiring.tolist()
        c = topology.constellation
        #: Full-torus Walker shells (delta-RAAN spans the whole circle,
        #: e.g. Starlink/Kuiper deltas) admit a strict-decrease
        #: argument on the hop metric, so the greedy walk can never
        #: revisit a node; star constellations (OneWeb/Iridium,
        #: raan_spread = pi) have a seam where it can, and get an
        #: explicit per-step revisit check.  So does a torus with a
        #: ring of two or fewer (up == down, or left == right): one hop
        #: can undo the last, and the walk can bounce between two nodes;
        #: and one with a phasing factor of magnitude 2 or more, whose
        #: last-to-first plane hop shifts the phase by a slot or more:
        #: the walk can bounce across that seam.
        self._full_torus = (
            math.isclose(c.delta_raan * c.num_planes, TWO_PI, rel_tol=1e-9)
            and min(c.num_planes, c.sats_per_plane) > 2
            and abs(c.phasing_factor) <= 1)
        #: What the compiled walk's ``destination_reps`` reads of the
        #: inclination: ``InclinedCoordinateSystem``'s band, sine and
        #: cosine, by the same expressions.
        inclination = self.scalar.system.inclination
        self._inclination_terms = (
            min(inclination, math.pi - inclination),
            math.sin(inclination), math.cos(inclination))

    def _count(self, name: str, amount: int = 1, **labels: object) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name, **labels).inc(amount)

    def _check_sources(self, src_sats: Sequence[int]) -> np.ndarray:
        """``src_sats`` as a contiguous int64 array, or ``ValueError``.

        Every entry must meet
        :data:`~repro.topology.routing.SOURCE_CONTRACT`; a float entry
        (``2.5``) is refused, not truncated to an index, and so is a
        bool, which ``np.asarray`` turns into an int inside a sequence
        that holds ints too.  An ndarray is checked by its dtype alone,
        so a large wave pays no per-entry scan.
        """
        raw = np.asarray(src_sats)
        total = self.topology.constellation.total_satellites
        if raw.size and (raw.dtype.kind not in "iu"
                         or int(raw.min()) < 0 or int(raw.max()) >= total
                         or (not isinstance(src_sats, np.ndarray) and any(
                             isinstance(entry, (bool, np.bool_))
                             for entry in src_sats))):
            raise ValueError(SOURCE_CONTRACT)
        return np.ascontiguousarray(raw, dtype=np.int64)

    # -- the batch walk --------------------------------------------------------

    def route_batch(self, src_sats: Sequence[int],
                    dest_lats: Sequence[float],
                    dest_lons: Sequence[float], t: float
                    ) -> BatchRouteResult:
        """Route ``(N,)`` packets that share one epoch ``t``.

        The compiled walk routes the wave against the epoch's topology
        state; each packet it flags (deflection, seam revisit, path
        longer than its cap) then alternates between the reference
        walk, for the run of deflection hops from the flag, and the
        compiled walk, up to the next flag (:meth:`_hand_off`).
        Without a compiled walk the reference walk routes the whole
        wave, with the same results and the same ``fallback`` mask
        (see the module docstring).  Raises ``ValueError`` before any routing
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
        check_epoch(t)
        self._count("routing.batches")
        self._count("routing.packets", n, plane="batch")
        if self.metrics is not None:
            self.metrics.histogram(
                "routing.batch_size",
                buckets=BATCH_SIZE_BUCKETS).observe(float(n))

        if n == 0:
            return self._result(src)

        # The walk arrays first, the kernel second: the table counters
        # (``routing.table_builds`` / ``table_cache_*``) are the same
        # with and without a compiled walk.
        state = self.topology.state(t)
        if state.walk_built:
            self._count("routing.table_cache_hits")
        else:
            self._count("routing.table_cache_misses")
            self._count("routing.table_builds")
            state.walk_pointers()
        kernel = load_kernel()
        if kernel is None:
            return self._finish(self._result(src), src, dlat, dlon, t)
        # Each chunk's moves are packed from its region start, a
        # region of ``cap`` bytes per packet (more than the ``cap - 1``
        # moves a packet can write).  The array is left uninitialised,
        # so the bytes no path reaches are address space, not memory.
        # The kernel flags the rare walk longer than ``cap`` nodes for
        # the reference walk to continue (it has no capacity limit).
        cap = self._cap
        out = self._result(src, n * cap)
        self._count("routing.kernel_packets", n)

        def walk(part: slice) -> None:
            self._route_chunk_kernel(kernel, state, src, dlat, dlon, out,
                                     part, cap)

        parts = [slice(lo, lo + _CHUNK_PACKETS)
                 for lo in range(0, n, _CHUNK_PACKETS)]
        threads = 1
        if len(parts) > 1:
            # Function-local: ``repro.runtime`` imports this module.
            from ..runtime.planner import usable_cores
            threads = min(len(parts), usable_cores())
        if threads == 1:
            for part in parts:
                walk(part)
        else:
            # Bit-identical at any thread count: see "Chunks on threads".
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for _ in pool.map(walk, parts):
                    pass
        out._used = int(out._offsets[-1]) + int(out.path_len[-1]) - 1
        return self._finish(out, src, dlat, dlon, t, kernel, state)

    # -- the epoch sweep -------------------------------------------------------

    def route_sweep(self, src_sats: Sequence[int],
                    dest_lats: Sequence[float],
                    dest_lons: Sequence[float],
                    ts: Sequence[float]) -> BatchRouteResult:
        """Route ``(N,)`` packets, each at its *own* epoch ``ts[i]``.

        The time-sweeping face of the batch plane: packets are grouped
        by epoch, each epoch's wave runs through one
        :meth:`route_batch` call against that epoch's topology state,
        and the per-epoch results scatter back into one flat
        :class:`BatchRouteResult` **in input order**.  Packets are
        independent, so the grouping is bitwise neutral: element ``i``
        equals ``GeospatialRouter.route(src[i], lat[i], lon[i],
        ts[i])`` exactly, which is what the serial-vs-sweep
        equivalence suite asserts.

        Each distinct epoch builds its walk arrays once
        (``routing.table_builds``), and the grid keeps only the last
        state, so a repeated sweep builds every epoch's again.
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
            return BatchRouteResult(0, self._wiring)
        epochs, inverse = np.unique(t_arr, return_inverse=True)
        self._count("routing.sweep_epochs", int(epochs.size))
        out = BatchRouteResult(n, self._wiring)
        for k in range(epochs.size):
            sel = np.nonzero(inverse == k)[0]
            out._scatter(sel, self.route_batch(
                src[sel], dlat[sel], dlon[sel], float(epochs[k])))
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
        propagator = self.topology.propagator
        src_sats = np.fromiter(
            (snapshot_for(propagator, t).serving_satellite(src[0], src[1])
             for t in ts_list),
            dtype=np.int64, count=n)
        routed = np.nonzero(src_sats >= 0)[0]
        wave = self.route_sweep(
            src_sats[routed],
            np.full(routed.size, dst[0]), np.full(routed.size, dst[1]),
            np.asarray(ts_list, dtype=float)[routed])
        if routed.size == n:
            return src_sats, wave
        out = BatchRouteResult(n, self._wiring)
        out._scatter(routed, wave)
        return src_sats, out

    def _result(self, src: np.ndarray,
                capacity: int = 0) -> BatchRouteResult:
        """An empty result for the wave ``src``: its sources set, room
        for ``capacity`` moves."""
        out = BatchRouteResult(len(src), self._wiring, capacity)
        out._source[:] = src
        return out

    def _route_chunk_kernel(self, kernel: ctypes.CDLL,
                            state: TopologyState, src: np.ndarray,
                            dlat: np.ndarray, dlon: np.ndarray,
                            out: BatchRouteResult, part: slice,
                            cap: int) -> None:
        """The packets ``part`` through the compiled per-packet walk.

        Same decision structure and float64 arithmetic as the
        reference walk (see ``_walk_kernel``); writes the chunk's rows
        of ``out`` and packs its moves, at most ``cap - 1`` each, from
        byte ``part.start * cap`` of the flat array on.  May run on a
        worker thread, so it writes only the chunk's share of ``out``
        and touches no metrics registry.
        """
        path_len = out.path_len[part]
        self._walk(kernel, state, path_len.shape[0], cap,
                   (_ptr(src[part]), None, _ptr(dlat[part]),
                    _ptr(dlon[part])),
                   (_ptr(out.delivered[part]), _ptr(out.degraded[part]),
                    _ptr(out.fallback[part]), _ptr(out.delay_s[part]),
                    _ptr(out.distance_km[part]), _ptr(path_len),
                    _ptr(out._moves[part.start * cap:])))
        # Packet i of the chunk starts where packet i - 1 ended.
        offsets = out._offsets[part]
        offsets[0] = part.start * cap
        np.cumsum(path_len[:-1] - 1, dtype=np.int64, out=offsets[1:])
        offsets[1:] += offsets[0]

    def _walk(self, kernel: ctypes.CDLL, state: TopologyState, n: int,
              cap: int, inputs: Tuple[Optional[int], ...],
              outputs: Tuple[int, ...]) -> None:
        """One ``walk_chunk`` call over ``n`` packets against ``state``:
        ``inputs`` are the addresses of their sources, resumed
        prefixes (``None`` for fresh walks), latitudes and longitudes,
        ``outputs`` those of the delivered, degraded and flag bytes,
        delays, distances, path lengths and moves."""
        theta = self.scalar.coverage_angle
        c = self.topology.constellation
        status = kernel.walk_chunk(
            n, self.max_hops, cap,
            1 if self._full_torus else 0,
            1 if state.healthy else 0,
            theta, theta * self.scalar.degraded_slack,
            math.cos(theta) + _COVERAGE_GUARD,
            math.cos(theta) - _COVERAGE_GUARD,
            c.delta_raan, c.delta_phase,
            *self._inclination_terms, *inputs, *state.walk_pointers(),
            *outputs)
        if status != 0:
            raise ValueError(f"path cap {cap} (or a resumed prefix) is "
                             "outside the compiled walk's node buffer")

    def _walked(self, kernel: ctypes.CDLL, out: BatchRouteResult,
                part: np.ndarray) -> Iterator[Tuple[List[int], float, float]]:
        """The path, delay and distance ``out`` holds for each packet of
        ``part``, the nodes decoded for all of ``part`` in one
        ``decode_paths`` call."""
        lengths = out.path_len[part]
        nodes = np.empty(int(lengths.sum()), dtype=np.int32)
        kernel.decode_paths(
            part.size, _ptr(part), _ptr(out._source), _ptr(out._offsets),
            _ptr(out.path_len), _ptr(out._moves), _ptr(self._wiring),
            _ptr(nodes))
        flat = nodes.tolist()
        return zip((flat[end - length:end] for end, length in zip(
                        np.cumsum(lengths).tolist(), lengths.tolist())),
                   out.delay_s[part].tolist(),
                   out.distance_km[part].tolist())

    def _finish(self, out: BatchRouteResult, src: np.ndarray,
                dlat: np.ndarray, dlon: np.ndarray, t: float,
                kernel: Optional[ctypes.CDLL] = None,
                state: Optional[TopologyState] = None) -> BatchRouteResult:
        """Route the flagged packets of ``out`` with the reference walk.

        On the compiled-walk lane (``kernel`` and the wave's ``state``
        given) each flagged packet starts from the prefix the compiled
        walk left in ``out`` (its ``path_len``-node path, ``delay_s``
        and ``distance_km``), and the two walks take turns on it
        (:meth:`_hand_off`) until it has its verdict.  Without a
        compiled walk every packet takes the reference walk from its
        source and ``fallback`` reports its ``deflected`` bit, which is
        what the compiled walk's flags mean -- so the mask (and
        ``routing.scalar_fallbacks``) does not depend on whether this
        host could build the kernel.
        """
        flagged = (np.arange(len(out)) if kernel is None
                   else np.nonzero(out.fallback)[0])
        # Each settled packet's ``(index, delivered, degraded, delay,
        # distance, path)``, in settling order, written to ``out`` in
        # one pass at the end.
        settled: List[Tuple[int, bool, bool, float, float, List[int]]] = []
        # A chunk of flagged packets at a time: their inputs are read
        # as Python lists, which bounds those lists' memory.
        for lo in range(0, flagged.size, _CHUNK_PACKETS):
            part = flagged[lo:lo + _CHUNK_PACKETS]
            packets = zip(part.tolist(), src[part].tolist(),
                          dlat[part].tolist(), dlon[part].tolist())
            if kernel is None:
                for index, source, lat, lon in packets:
                    result = self.scalar.route(source, lat, lon, t)
                    out.fallback[index] = result.deflected
                    settled.append((index, result.delivered,
                                    result.degraded, result.delay_s,
                                    result.distance_km, result.path))
                continue
            walks = [(packet, RouteResult(False, path, delay, distance))
                     for packet, (path, delay, distance) in zip(
                         packets, self._walked(kernel, out, part))]
            while walks:
                walks = self._hand_off(kernel, state, walks, t, settled)
        if settled:
            done, reached, low, delays, distances, paths = zip(*settled)
            sel = np.array(done, dtype=np.int64)
            out.delivered[sel] = reached
            out.degraded[sel] = low
            out.delay_s[sel] = delays
            out.distance_km[sel] = distances
            # The settled paths are encoded in one pass and go to the
            # tail in one copy; a continued packet's compiled-walk slot
            # is left unclaimed.
            counts = np.fromiter(map(len, paths), dtype=np.intc,
                                 count=len(paths))
            nodes = np.fromiter(chain.from_iterable(paths), dtype=np.intc,
                                count=int(counts.sum()))
            hops = np.maximum(counts - 1, 0)
            out._append(sel, _encode_moves(self._wiring, nodes, counts),
                        np.cumsum(hops, dtype=np.int64) - hops, counts)
        self._count("routing.scalar_fallbacks",
                    int(np.count_nonzero(out.fallback)))
        return out

    def _hand_off(self, kernel: ctypes.CDLL, state: TopologyState,
                  walks: List[Tuple[Tuple[int, int, float, float],
                                    RouteResult]],
                  t: float, settled: List[Tuple]
                  ) -> List[Tuple[Tuple[int, int, float, float],
                                  RouteResult]]:
        """One round over ``walks``, ``(index, source, lat, lon)``
        packets with the prefix each has walked.

        The reference walk takes each packet's turn from its prefix
        (``route(..., walked=prefix)``): the hop the compiled walk
        flagged and every deflection hop after it, up to the next
        preferred-direction hop, or the packet's verdict, which goes to
        ``settled``.  A turn that takes no hop is a drop, and one that
        spends ``max_hops`` is the budget's verdict.  A prefix of the
        compiled walk's 64 nodes or more is outside its node buffer,
        so the reference walk takes turns on it until its verdict.  The compiled walk then resumes every packet still
        walking, over the same ``state``, up to its next flag,
        delivery or ``max_hops``.  Returns the packets it flagged
        again, each with its longer prefix; each prefix is the
        reference walk's own, so the turns add up to its whole route.
        """
        cap = self._cap
        last = self.max_hops + 1
        route = self.scalar.route
        resumed = []
        for packet, walked in walks:
            index, source, lat, lon = packet
            while True:
                result = route(source, lat, lon, t, walked=walked)
                length = len(result.path)
                if (result.delivered or length == len(walked.path)
                        or length == last):
                    settled.append((index, result.delivered,
                                    result.degraded, result.delay_s,
                                    result.distance_km, result.path))
                    break
                if length < cap:
                    resumed.append((packet, result))
                    break
                walked = result
        if not resumed:
            return []
        # The compiled walk resumes every prefix from its last node; its
        # buffers are ``array.array``s, whose addresses cost next to
        # nothing, since most rounds resume only a few packets.
        n = len(resumed)
        packets, prefixes = zip(*resumed)
        _, _, lat, lon = zip(*packets)
        lat, lon = array("d", lat), array("d", lon)
        nodes = array("i")
        for walked in prefixes:
            nodes.extend(walked.path)
        lengths = array("i", [len(walked.path) for walked in prefixes])
        delay = array("d", [walked.delay_s for walked in prefixes])
        distance = array("d", [walked.distance_km for walked in prefixes])
        delivered, degraded, again = (array("B", bytes(n)) for _ in range(3))
        moves = array("B", bytes(n * cap))
        self._walk(kernel, state, n, cap,
                   (None, _address(nodes), _address(lat), _address(lon)),
                   tuple(map(_address, (delivered, degraded, again, delay,
                                        distance, lengths, moves))))
        # Each resumed prefix grows by the moves the compiled walk took,
        # packed back to back.  The turn's path is this round's own
        # list, so it grows in place.
        rows = self._wiring_rows
        walks = []
        end = 0
        for packet, walked, length, verdict, delay_s, distance_km, low, \
                flagged in zip(packets, prefixes, lengths, delivered, delay,
                               distance, degraded, again):
            start = end
            end += length - len(walked.path)
            path = walked.path
            node = path[-1]
            for move in moves[start:end]:
                node = rows[node][move]
                path.append(node)
            if flagged:
                walks.append((packet, RouteResult(
                    False, path, delay_s, distance_km,
                    deflected=walked.deflected)))
            else:
                settled.append((packet[0], verdict, low, delay_s,
                                distance_km, path))
        return walks


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
