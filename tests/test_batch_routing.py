"""Batch routing plane: bit-exact equivalence with the scalar walk.

The contract under test is absolute, not approximate: for every
packet, :meth:`~repro.topology.batch_routing.BatchGeoRouter.route_batch`
must reproduce the scalar :class:`~repro.topology.routing.GeospatialRouter`
walk *bit for bit* -- same delivered/degraded verdicts, same hop
sequence, and floating-point-identical delay and distance sums --
across healthy grids, coverage-edge destinations, and fault cocktails,
on both lanes of the plane: the compiled C kernel, and the reference
walk a host without a compiler gets.  Any `==` here is deliberate.
"""

import contextlib
import ctypes
import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import SPEED_OF_LIGHT_KM_S
from repro.crypto import SCHNORR_GROUP
from repro.obs.metrics import MetricsRegistry
from repro.orbits.constellation import Constellation, iridium, starlink
from repro.orbits.propagator import make_propagator
from repro.orbits.snapshot import grid_neighbor_table, snapshot_for
from repro.topology import _walk_kernel, batch_routing
from repro.topology._walk_kernel import load_kernel
from repro.topology.batch_routing import BatchGeoRouter
from repro.topology.grid import GridTopology
from repro.topology.routing import (
    EPOCH_CONTRACT,
    RELAY_MAX_HOPS,
    SOURCE_CONTRACT,
    DijkstraRouter,
    GeospatialRouter,
)

#: Constellation zoo: a Table-1 shell plus synthetic grids chosen to
#: stress the seam cases (full torus vs pi-spread, small planes).
CONSTELLATIONS = {
    "starlink": starlink,
    "iridium": iridium,
    "square": lambda: Constellation(
        name="square", num_planes=12, sats_per_plane=12,
        altitude_km=550.0, inclination_deg=53.0),
    "tall": lambda: Constellation(
        name="tall", num_planes=6, sats_per_plane=18,
        altitude_km=780.0, inclination_deg=86.4,
        raan_spread=np.pi),
    "wide": lambda: Constellation(
        name="wide", num_planes=18, sats_per_plane=6,
        altitude_km=1200.0, inclination_deg=87.9,
        raan_spread=np.pi),
}

needs_kernel = pytest.mark.skipif(
    load_kernel() is None, reason="no compiled walk on this host")


def _no_kernel():
    """``route_batch`` as a host without the compiled walk runs it."""
    return mock.patch.object(batch_routing, "load_kernel",
                             return_value=None)


@pytest.fixture
def engine(request):
    """The lane ``route_batch`` takes: ``"kernel"`` (the compiled walk,
    skipped where it cannot be built) or ``"reference"`` (``load_kernel``
    answers ``None``, as without a compiler)."""
    with (_no_kernel() if request.param == "reference"
          else contextlib.nullcontext()):
        yield request.param


#: Both lanes must match the scalar reference.  The ids answer "is the
#: compiled walk present?" and are the ones these cases have carried
#: since the plane was introduced, so their history lines up.
both_engines = pytest.mark.parametrize("engine", [
    pytest.param("reference", id="False"),
    pytest.param("kernel", id="True", marks=needs_kernel),
], indirect=True)


def _topology(name):
    constellation = CONSTELLATIONS[name]()
    return GridTopology(make_propagator(constellation, "ideal"), [])


def _wave(constellation, packets, seed, lat_slack=0.02):
    rng = np.random.default_rng(seed)
    band = math.radians(min(constellation.inclination_deg,
                            180.0 - constellation.inclination_deg))
    band = band - lat_slack
    src = rng.integers(0, constellation.total_satellites, packets)
    lats = rng.uniform(-band, band, packets)
    lons = rng.uniform(-math.pi, math.pi, packets)
    return src, lats, lons


def assert_bit_equal(batch, scalar_router, src, lats, lons, t):
    """Every packet of the batch must equal the scalar walk exactly."""
    for i in range(len(src)):
        expected = scalar_router.route(int(src[i]), float(lats[i]),
                                       float(lons[i]), t)
        assert bool(batch.delivered[i]) == expected.delivered, i
        assert bool(batch.degraded[i]) == expected.degraded, i
        assert float(batch.delay_s[i]) == expected.delay_s, i
        assert float(batch.distance_km[i]) == expected.distance_km, i
        assert batch.path(i) == expected.path, i


def _paths(batch):
    """Every packet's path: the one read the lanes must agree on, as
    they may lay the flat path array out differently."""
    return [batch.path(i) for i in range(len(batch))]


def assert_sweep_bit_equal(swept, scalar_router, src, lats, lons, ts):
    """Every sweep packet must equal the scalar walk *at its epoch*."""
    for i in range(len(src)):
        expected = scalar_router.route(int(src[i]), float(lats[i]),
                                       float(lons[i]), float(ts[i]))
        assert bool(swept.delivered[i]) == expected.delivered, i
        assert bool(swept.degraded[i]) == expected.degraded, i
        assert float(swept.delay_s[i]) == expected.delay_s, i
        assert float(swept.distance_km[i]) == expected.distance_km, i
        assert swept.path(i) == expected.path, i


def _sweep_wave(constellation, packets, epochs, seed, spacing_s=240.0):
    """A mixed-epoch wave: interleaved (unsorted, repeated) epochs."""
    src, lats, lons = _wave(constellation, packets, seed)
    grid = np.array([spacing_s * k for k in range(epochs)])
    ts = grid[np.arange(packets) % epochs]
    return src, lats, lons, ts


class TestBatchScalarEquivalence:
    @both_engines
    @pytest.mark.parametrize("name", sorted(CONSTELLATIONS))
    def test_random_waves_healthy(self, name, engine):
        topo = _topology(name)
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 160, seed=7)
        batch = router.route_batch(src, lats, lons, 120.0)
        assert_bit_equal(batch, router.scalar, src, lats, lons, 120.0)

    @both_engines
    def test_coverage_edge_destinations(self, engine):
        """Destinations nudged across the coverage boundary.

        The batch plane screens coverage with a dot product inside a
        guard band and re-tests exactly near the edge; these
        destinations sit fractions of a microradian on either side of
        delivery, where any screening sloppiness would flip verdicts.
        """
        topo = _topology("starlink")
        router = BatchGeoRouter(topo)
        theta = router.scalar.coverage_angle
        snap = snapshot_for(topo.propagator, 60.0)
        rng = np.random.default_rng(13)
        sats = rng.integers(0, topo.constellation.total_satellites, 64)
        lats, lons, srcs = [], [], []
        for k, sat in enumerate(sats):
            slat, slon = snap.subpoints[sat]
            for eps in (-1e-7, -1e-10, 0.0, 1e-10, 1e-7):
                lat = slat + (theta + eps) * (1 if k % 2 else -1)
                if abs(lat) > math.radians(88.0):
                    continue
                lats.append(lat)
                lons.append(slon)
                srcs.append(int(sats[(k + 7) % len(sats)]))
        src = np.asarray(srcs, dtype=np.int64)
        lats = np.asarray(lats)
        lons = np.asarray(lons)
        batch = router.route_batch(src, lats, lons, 60.0)
        assert_bit_equal(batch, router.scalar, src, lats, lons, 60.0)

    @both_engines
    @pytest.mark.parametrize("seed", [1, 2])
    def test_fault_cocktail(self, seed, engine):
        """Dead satellites + torn ISLs: the deflection path must match."""
        topo = _topology("starlink")
        rng = np.random.default_rng(seed)
        for sat in rng.choice(topo.constellation.total_satellites, 40,
                              replace=False):
            topo.fail_satellite(int(sat))
        for _ in range(25):
            a = int(rng.integers(0, topo.constellation.total_satellites))
            for b in topo.isl_neighbors(a)[:2]:
                topo.fail_isl(a, b)
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 120, seed=seed + 50)
        batch = router.route_batch(src, lats, lons, 90.0)
        assert_bit_equal(batch, router.scalar, src, lats, lons, 90.0)

    @needs_kernel
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(CONSTELLATIONS)),
           seed=st.integers(0, 2**32 - 1),
           dead_sats=st.integers(0, 40), torn_isls=st.integers(0, 25),
           t=st.sampled_from([0.0, 90.0, 2871.5]))
    def test_kernel_and_reference_lanes_agree(self, name, seed, dead_sats,
                                              torn_isls, t):
        """With and without the compiled walk: every output array,
        every path and the ``fallback`` mask are identical."""
        topo = _topology(name)
        total = topo.constellation.total_satellites
        rng = np.random.default_rng(seed)
        for sat in rng.choice(total, min(dead_sats, total // 8),
                              replace=False):
            topo.fail_satellite(int(sat))
        wiring = grid_neighbor_table(topo.constellation)
        for a, column in zip(rng.integers(0, total, torn_isls),
                             rng.integers(0, 4, torn_isls)):
            topo.fail_isl(int(a), int(wiring[a, column]))
        src, lats, lons = _wave(topo.constellation, 48, seed=seed)
        a = BatchGeoRouter(topo).route_batch(src, lats, lons, t)
        with _no_kernel():
            b = BatchGeoRouter(topo).route_batch(src, lats, lons, t)
        for field in ("delivered", "degraded", "delay_s", "distance_km",
                      "path_len", "fallback"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), \
                field
        assert _paths(a) == _paths(b)


class TestBatchRouterMechanics:
    @both_engines
    @pytest.mark.parametrize("chunk", [32, 7])
    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_chunked_equals_single_batch(self, cores, chunk, engine,
                                         monkeypatch):
        """Any chunking on any number of threads: every output array,
        every path and the ``routing.*`` counters equal one
        unchunked walk of the same faulted wave."""
        from repro.obs.metrics import MetricsRegistry
        from repro.runtime import planner
        pools = []

        class RecordingPool(batch_routing.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(batch_routing, "ThreadPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(planner, "usable_cores", lambda: cores)
        topo = _faulted(starlink(), 3, 40, 25)
        src, lats, lons = _wave(topo.constellation, 101, seed=9)

        def run():
            metrics = MetricsRegistry()
            batch = BatchGeoRouter(topo, metrics=metrics).route_batch(
                src, lats, lons, 10.0)
            return batch, metrics.snapshot()["counters"]

        b, b_counters = run()
        assert pools == []
        monkeypatch.setattr(batch_routing, "_CHUNK_PACKETS", chunk)
        # Switch threads as often as the interpreter allows, so the
        # chunks' Python steps interleave as finely as they can.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            a, a_counters = run()
        finally:
            sys.setswitchinterval(interval)
        chunks = -(-len(src) // chunk)
        threaded = engine == "kernel" and cores > 1
        assert pools == ([min(chunks, cores)] if threaded else [])
        assert b.fallback.any()
        for field in ("delivered", "degraded", "delay_s", "distance_km",
                      "path_len", "fallback"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), \
                field
        assert _paths(a) == _paths(b)
        assert a_counters == b_counters
        assert all(key.startswith("routing.") for key in a_counters)

    @both_engines
    def test_paths_are_packed_back_to_back(self, engine):
        """A wave's moves share one flat array, each packet's moves
        right after the previous packet's: one byte per hop."""
        topo = _topology("starlink")
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 32, seed=2)
        batch = router.route_batch(src, lats, lons, 0.0)
        ends = np.cumsum(batch.hops)
        assert not batch.fallback.any()
        assert np.array_equal(batch._offsets, ends - batch.hops)
        assert batch._used == ends[-1]
        for i in range(len(batch)):
            assert batch.path(i) == router.scalar.route(
                int(src[i]), float(lats[i]), float(lons[i]), 0.0).path

    def test_table_cache_invalidated_by_fault_events(self):
        """The table slot is correct by its ``(t, fault_epoch)`` alone.

        Route, fail, route, recover, route at one epoch ``t``: every
        wave equals the scalar walk, and each fault state builds its
        own table, the recovered one included.
        """
        from repro.obs.metrics import MetricsRegistry
        topo = _topology("square")
        metrics = MetricsRegistry()
        router = BatchGeoRouter(topo, metrics=metrics)
        src, lats, lons = _wave(topo.constellation, 8, seed=4)

        def wave():
            batch = router.route_batch(src, lats, lons, 0.0)
            assert_bit_equal(batch, router.scalar, src, lats, lons, 0.0)
            return batch

        before = wave()
        victim = max((p for i in range(len(before))
                      for p in before.path(i)[:-1]),
                     key=lambda s: sum(s in before.path(i)
                                       for i in range(len(before))))
        topo.fail_satellite(victim)
        after = wave()
        for i in range(len(after)):
            assert victim not in after.path(i)[1:]
        topo.recover_satellite(victim)
        again = wave()
        assert [again.result(i) for i in range(len(again))] \
            == [before.result(i) for i in range(len(before))]
        counters = metrics.snapshot()["counters"]
        assert counters["routing.table_builds"] == 3
        assert "routing.table_cache_hits" not in counters

    def test_table_slot_serves_only_the_last_table(self):
        """One table is kept: a repeat wave at the same ``(t,
        fault_epoch)`` hits and builds nothing, a new epoch builds, and
        going back to an earlier epoch builds that table again."""
        from repro.obs.metrics import MetricsRegistry
        topo = _topology("square")
        metrics = MetricsRegistry()
        router = BatchGeoRouter(topo, metrics=metrics)
        src, lats, lons = _wave(topo.constellation, 8, seed=5)

        def counts():
            counters = metrics.snapshot()["counters"]
            return (counters.get("routing.table_builds", 0),
                    counters.get("routing.table_cache_hits", 0),
                    counters.get("routing.table_cache_misses", 0))

        for t, expected in ((0.0, (1, 0, 1)), (0.0, (1, 1, 1)),
                            (60.0, (2, 1, 2)), (60.0, (2, 2, 2)),
                            (0.0, (3, 2, 3))):
            batch = router.route_batch(src, lats, lons, t)
            assert_bit_equal(batch, router.scalar, src, lats, lons, t)
            assert counts() == expected, t

    def test_routing_metrics_counters(self):
        from repro.obs.metrics import MetricsRegistry, merge_snapshots
        topo = _topology("square")

        def run():
            metrics = MetricsRegistry()
            router = BatchGeoRouter(topo, metrics=metrics)
            src, lats, lons = _wave(topo.constellation, 48, seed=6)
            router.route_batch(src, lats, lons, 0.0)
            router.route_batch(src, lats, lons, 0.0)
            return metrics.snapshot()

        snap = run()
        counters = snap["counters"]
        assert counters["routing.batches"] == 2
        assert counters["routing.packets{plane=batch}"] == 96
        # The table is built once; the second batch hits the cache.
        assert counters["routing.table_builds"] == 1
        # Deterministic merge: two identical runs fold to doubled counts.
        merged = merge_snapshots([snap, run()])
        assert merged["counters"]["routing.batches"] == 4

    def test_rejects_mismatched_lengths(self):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        with pytest.raises(ValueError):
            router.route_batch([0, 1], [0.0], [0.0, 0.0], 0.0)

    def test_rejects_out_of_range_source(self):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        with pytest.raises(ValueError):
            router.route_batch([10_000], [0.0], [0.0], 0.0)

    @both_engines
    @pytest.mark.parametrize("lat, lon", [
        pytest.param(math.nan, 0.0, id="nan-lat"),
        pytest.param(0.0, math.nan, id="nan-lon"),
        pytest.param(math.inf, 0.0, id="inf-lat"),
        pytest.param(0.0, -math.inf, id="inf-lon"),
        pytest.param(10.0, 0.0, id="lat-10"),
        pytest.param(-math.pi / 2 - 1e-9, 0.0, id="past-pole")])
    def test_rejects_bad_destination(self, lat, lon, engine):
        """One typed error on every entry point, raised before any
        routing, table build or batch counter."""
        from repro.obs.metrics import MetricsRegistry
        topo = _topology("square")
        metrics = MetricsRegistry()
        router = BatchGeoRouter(topo, metrics=metrics)
        good = (3, 0.1, 0.2)
        calls = [
            lambda: router.scalar.route(5, lat, lon, 0.0),
            lambda: router.route_batch([good[0], 5], [good[1], lat],
                                       [good[2], lon], 0.0),
            lambda: router.route_sweep([good[0], 5], [good[1], lat],
                                       [good[2], lon], [0.0, 60.0]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite radians"):
                call()
        counters = metrics.snapshot()["counters"]
        assert "routing.batches" not in counters
        assert "routing.table_builds" not in counters
        # The poles themselves are inside the contract.
        pole = router.route_batch([5], [math.pi / 2], [7.0], 0.0)
        assert pole.result(0) == router.scalar.route(5, math.pi / 2,
                                                     7.0, 0.0)

    @both_engines
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_rejects_bad_epoch(self, t, engine):
        """A NaN epoch used to deliver "in 0 hops" (and be flagged as a
        fallback by the batch plane); an infinite one died inside the
        propagator.  Now one typed error, before any counter moves."""
        from repro.obs.metrics import MetricsRegistry
        topo = _topology("square")
        metrics = MetricsRegistry()
        router = BatchGeoRouter(topo, metrics=metrics)
        calls = [
            lambda: router.scalar.route(5, 0.3, 1.0, t),
            lambda: router.route_batch([3, 5], [0.1, 0.3], [0.2, 1.0], t),
            lambda: router.route_sweep([3, 5], [0.1, 0.3], [0.2, 1.0],
                                       [0.0, t]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=EPOCH_CONTRACT):
                call()
        assert not any(key.startswith("routing.")
                       for key in metrics.snapshot()["counters"])
        # Any finite epoch is inside the contract, numpy scalars too.
        batch = router.route_batch([5], [0.3], [1.0], np.float64(-30.0))
        assert batch.result(0) == router.scalar.route(5, 0.3, 1.0, -30.0)


def _assert_power_is_pow():
    """``SchnorrGroup.power``, which shares the compiled object, still
    answers exactly as builtin ``pow``, window edges included."""
    group = SCHNORR_GROUP
    p = group.p
    for base, exponent in [(group.g, group.q), (p - 1, 2 ** 512 - 1),
                           (group.generate(7), p - 1), (p + 5, 2 ** 512),
                           (0, 0), (3, -1)]:
        assert group.power(base, exponent) == pow(base, exponent, p)


class TestKernelBuildFailureModes:
    """Every way the compiled object can be missing, exercised: the
    plane keeps working and answers exactly as the reference walk, and
    ``SchnorrGroup.power`` exactly as builtin ``pow``."""

    @pytest.fixture
    def cache_dir(self, monkeypatch, tmp_path):
        """A fresh ``load_kernel``: memo reset, empty object cache."""
        monkeypatch.setattr(_walk_kernel, "_cached", None)
        monkeypatch.setattr(_walk_kernel, "_load_attempted", False)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
        return tmp_path

    @staticmethod
    def _assert_routes_like_reference():
        topo = _topology("tall")
        topo.fail_satellite(11)
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 64, seed=41)
        batch = router.route_batch(src, lats, lons, 45.0)
        assert_bit_equal(batch, router.scalar, src, lats, lons, 45.0)
        deflected = [router.scalar.route(int(s), float(la), float(lo),
                                         45.0).deflected
                     for s, la, lo in zip(src, lats, lons)]
        assert batch.fallback.tolist() == deflected
        assert any(deflected)
        _assert_power_is_pow()

    def test_no_compiler(self, cache_dir, monkeypatch):
        monkeypatch.setattr(_walk_kernel, "_find_compiler", lambda: None)
        assert load_kernel() is None
        self._assert_routes_like_reference()
        assert os.listdir(cache_dir) == []

    def test_compiler_exits_nonzero(self, cache_dir, monkeypatch):
        stub = cache_dir / "failing-cc"
        stub.write_text("#!/bin/sh\nexit 1\n")
        stub.chmod(0o755)
        monkeypatch.setattr(_walk_kernel, "_find_compiler",
                            lambda: str(stub))
        assert load_kernel() is None
        self._assert_routes_like_reference()
        # Neither an object nor the temporary source is left behind.
        assert os.listdir(cache_dir) == ["failing-cc"]

    @pytest.mark.skipif(_walk_kernel._find_compiler() is None,
                        reason="no C compiler on this host")
    def test_truncated_cached_object_is_rebuilt(self, cache_dir):
        stale = cache_dir / f"walk_{_walk_kernel.kernel_source_hash()}.so"
        stale.write_bytes(b"\x7fELF truncated")
        assert load_kernel() is not None
        assert stale.stat().st_size > 1024
        self._assert_routes_like_reference()


def _stretched_star():
    """An Iridium-style star shell (two pi-spread planes, 86.4 deg)
    stretched in-plane: its preferred-direction walks outgrow the
    compiled walk's 64-node path cap, centre on coverage gaps and revisit
    across the seam."""
    return Constellation(
        name="iridium-stretched", num_planes=2, sats_per_plane=600,
        altitude_km=780.0, inclination_deg=86.4, raan_spread=np.pi)


def _faulted(constellation, seed, dead, torn):
    """A fresh topology with ``dead`` satellites and ``torn`` ISLs down."""
    topo = GridTopology(make_propagator(constellation, "ideal"), [])
    rng = np.random.default_rng(seed)
    total = constellation.total_satellites
    for sat in rng.choice(total, dead, replace=False):
        topo.fail_satellite(int(sat))
    wiring = grid_neighbor_table(constellation)
    for a, column in zip(rng.integers(0, total, torn),
                         rng.integers(0, 4, torn)):
        topo.fail_isl(int(a), int(wiring[a, column]))
    return topo


def _copied(result):
    """``result`` with a path list of its own."""
    return dataclasses.replace(result, path=list(result.path))


def _ints(address, n):
    """The ``n`` int32 values a hand-off buffer holds at ``address``."""
    return list((ctypes.c_int32 * n).from_address(address))


@needs_kernel
class TestKernelHandOff:
    """A flag is a hand-off, not a redo: the prefix the compiled walk
    leaves for each flagged packet is the reference walk's own prefix,
    path cells and float bits alike, at all four flag sites, and the
    reference walk takes the deflection run from there."""

    #: The two waves every hand-off test routes at ``t = 90 s``: a
    #: faulted Starlink wave and stretched star packets.
    WAVES = [(starlink(), 40, 25, 600), (_stretched_star(), 0, 0, 60)]

    @staticmethod
    def _preferred(topo, node, lat, lon, t):
        """Algorithm 1's preferred next hop from ``node``, or ``None``
        where ``node`` covers D or is centred on it: one hop of the
        reference walk on the same shell without faults."""
        clean = GridTopology(topo.propagator, [])
        step = GeospatialRouter(clean, max_hops=1).route(node, lat, lon, t)
        if step.delivered or step.deflected:
            return None
        return step.path[1]

    @classmethod
    def _hands_back(cls, topo, path, lat, lon, t):
        """Whether a turn that has walked ``path`` stops there: the next
        hop is the preferred one, live and unvisited."""
        preferred = cls._preferred(topo, path[-1], lat, lon, t)
        return (preferred is not None and preferred not in path
                and topo.isl_up(path[-1], preferred))

    @classmethod
    def _flag_kind(cls, topo, walked, lat, lon, t):
        """Which of the compiled walk's four flags stopped ``walked``."""
        node = walked.path[-1]
        preferred = cls._preferred(topo, node, lat, lon, t)
        if preferred is None:
            return "centred, not nearly covered"
        if not topo.isl_up(node, preferred):
            return "dead preferred edge"
        if preferred in walked.path:
            return "seam revisit"
        assert len(walked.path) == 64
        return "path cap reached"

    def test_flagged_prefix_is_the_reference_walks_prefix(self):
        kinds = set()
        longest = 0
        t = 90.0
        for shell, dead, torn, packets in self.WAVES:
            topo = _faulted(shell, 1, dead, torn)
            router = BatchGeoRouter(topo)
            src, lats, lons = _wave(shell, packets, 1)
            handed = {}
            route = router.scalar.route

            def spy(source, lat, lon, when, *, walked=None):
                handed.setdefault((source, lat, lon), walked)
                return route(source, lat, lon, when, walked=walked)

            with mock.patch.object(router.scalar, "route", spy):
                batch = router.route_batch(src, lats, lons, t)
            flagged = np.nonzero(batch.fallback)[0]
            # Each flagged packet's first turn of the reference walk
            # gets the compiled walk's prefix; the later turns are
            # test_the_walks_take_turns' subject.
            assert len(handed) == flagged.size > 0
            reference = GeospatialRouter(topo)
            snap = snapshot_for(topo.propagator, t)
            wiring = grid_neighbor_table(shell)
            lengths = snap.hop_lengths_km()
            for i in flagged:
                lat, lon = float(lats[i]), float(lons[i])
                walked = handed[(int(src[i]), lat, lon)]
                expected = reference.route(int(src[i]), lat, lon, t)
                hops = len(walked.path) - 1
                assert walked.path == expected.path[:hops + 1]
                delay = distance = 0.0
                for a, b in zip(walked.path, walked.path[1:]):
                    hop_km = float(lengths[a][wiring[a] == b][0])
                    delay += hop_km / SPEED_OF_LIGHT_KM_S
                    distance += hop_km
                assert walked.delay_s.hex() == delay.hex()
                assert walked.distance_km.hex() == distance.hex()
                assert not (walked.delivered or walked.deflected)
                assert batch.result(int(i)) == expected
                kinds.add(self._flag_kind(topo, walked, lat, lon, t))
            longest = max(longest, int(batch.path_len.max()))
        assert kinds == {"centred, not nearly covered",
                         "dead preferred edge", "seam revisit",
                         "path cap reached"}
        assert longest > 64

    #: The routing counters the faulted Starlink wave and the stretched
    #: star, each routed twice at one epoch, counted when the reference
    #: walk continued each flagged packet to its end in one call.
    PARENT_COUNTS = {
        "Starlink": {"routing.table_builds": 1,
                     "routing.table_cache_hits": 1,
                     "routing.table_cache_misses": 1,
                     "routing.kernel_packets": 1200,
                     "routing.scalar_fallbacks": 522},
        "iridium-stretched": {"routing.table_builds": 1,
                              "routing.table_cache_hits": 1,
                              "routing.table_cache_misses": 1,
                              "routing.kernel_packets": 120,
                              "routing.scalar_fallbacks": 106},
    }

    def test_the_walks_take_turns(self):
        """After a flag the two walks alternate.  Every reference-walk
        call from ``_finish`` is one turn from a prefix that is the
        reference walk's own, float bits included: it takes the hop at
        the flag and then only hops that leave the preferred direction,
        and ends with the packet's verdict or before the next
        preferred-direction hop, which the compiled walk resumes from,
        over the same table, without moving a routing counter.  Every
        packet lands on the reference walk's route."""
        t = 90.0
        turns = {"verdict": 0, "hand-back": 0, "run": 0, "past the cap": 0}
        for shell, dead, torn, packets in self.WAVES:
            topo = _faulted(shell, 1, dead, torn)
            metrics = MetricsRegistry()
            router = BatchGeoRouter(topo, metrics=metrics)
            src, lats, lons = _wave(shell, packets, 1)
            calls, resumed, tables = [], [], set()
            route, walk = router.scalar.route, router._walk

            def route_spy(source, lat, lon, when, *, walked=None):
                result = route(source, lat, lon, when, walked=walked)
                # The hand-off grows a turn's path in place.
                calls.append((source, lat, lon, walked, _copied(result)))
                return result

            def walk_spy(kernel, table, n, cap, inputs, outputs):
                tables.add(id(table))
                if inputs[1] is not None:
                    resumed.append(n)
                walk(kernel, table, n, cap, inputs, outputs)

            with mock.patch.object(router.scalar, "route", route_spy), \
                    mock.patch.object(router, "_walk", walk_spy):
                for _ in range(2):
                    batch = router.route_batch(src, lats, lons, t)
            counters = metrics.snapshot()["counters"]
            expected = self.PARENT_COUNTS[shell.name]
            assert {name: counters.get(name, 0)
                    for name in expected} == expected
            # One table serves both waves' first walks and every resume.
            assert sum(resumed) > 0 and len(tables) == 1
            reference = GeospatialRouter(topo)
            wholes = {}
            for source, lat, lon, walked, result in calls:
                whole = wholes.get((source, lat, lon))
                if whole is None:
                    whole = reference.route(source, lat, lon, t)
                    wholes[(source, lat, lon)] = whole
                walked_hops = len(walked.path) - 1
                cut = GeospatialRouter(topo, max_hops=walked_hops).route(
                    source, lat, lon, t)
                assert walked.path == cut.path == whole.path[:walked_hops + 1]
                assert (walked.delay_s.hex(), walked.distance_km.hex()) == (
                    cut.delay_s.hex(), cut.distance_km.hex())
                assert result.path == whole.path[:len(result.path)]
                # The run: no node after the turn's first hop is one the
                # turn should have stopped at.
                for end in range(len(walked.path) + 1, len(result.path)):
                    assert not self._hands_back(topo, result.path[:end],
                                                lat, lon, t)
                if result == whole:
                    turns["verdict"] += 1
                else:
                    assert self._hands_back(topo, result.path, lat, lon, t)
                    turns["hand-back"] += 1
                turns["run"] += result.hops > walked.hops + 1
                turns["past the cap"] += len(walked.path) >= 64
            for i in range(packets):
                assert batch.result(i) == reference.route(
                    int(src[i]), float(lats[i]), float(lons[i]), t), i
        assert all(turns.values()), turns

    def test_a_run_past_the_cap_is_finished_by_the_reference_walk(self):
        """A deflection run that takes a prefix to 64 nodes or more
        leaves it outside the compiled walk's node buffer
        (``walk_chunk`` refuses it), so the reference walk takes every
        later turn of that packet: no prefix handed back to the compiled
        walk holds 64 nodes."""
        shell = _stretched_star()
        t = 90.0
        topo = _faulted(shell, 1, 0, 0)
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(shell, 60, 1)
        handed, calls = [], []
        route, walk = router.scalar.route, router._walk

        def route_spy(source, lat, lon, when, *, walked=None):
            result = route(source, lat, lon, when, walked=walked)
            calls.append(((source, lat, lon), len(walked.path),
                          _copied(result)))
            return result

        def walk_spy(kernel, table, n, cap, inputs, outputs):
            if inputs[1] is not None:
                handed.extend(_ints(outputs[5], n))
            walk(kernel, table, n, cap, inputs, outputs)

        with mock.patch.object(router.scalar, "route", route_spy), \
                mock.patch.object(router, "_walk", walk_spy):
            batch = router.route_batch(src, lats, lons, t)
        assert handed and max(handed) < 64
        reference = GeospatialRouter(topo)
        turns = {}
        for key, before, result in calls:
            turns.setdefault(key, []).append((before, result))
        crossed = 0
        for key, chain in turns.items():
            whole = reference.route(*key, t)
            for (before, result), later in zip(chain, chain[1:] + [None]):
                if len(result.path) >= 64 and result != whole:
                    # The next turn starts right where this one ended:
                    # the compiled walk took no hop in between.
                    assert later is not None
                    assert later[0] == len(result.path)
                    crossed += before < 64
        assert crossed > 0
        for i in range(len(src)):
            assert batch.result(i) == reference.route(
                int(src[i]), float(lats[i]), float(lons[i]), t), i

    #: Resumed packets the compiled walk flags again without a hop on
    #: the heavily faulted Starlink wave: deflection runs that end in
    #: a dead end.  A turn cannot tell a drop after deflection hops
    #: from a hand-back, so each costs one more round and a turn that
    #: takes no hop.
    ZERO_HOP_REFLAGS = 19

    def test_a_drop_after_deflection_hops_is_flagged_again_with_no_hop(self):
        shell = starlink()
        t = 90.0
        topo = _faulted(shell, 1, 200, 100)
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(shell, 600, 1)
        stuck = []
        walk = router._walk

        def walk_spy(kernel, table, n, cap, inputs, outputs):
            if inputs[1] is None:
                return walk(kernel, table, n, cap, inputs, outputs)
            before = _ints(outputs[5], n)
            walk(kernel, table, n, cap, inputs, outputs)
            after = _ints(outputs[5], n)
            again = list((ctypes.c_uint8 * n).from_address(outputs[2]))
            lat = list((ctypes.c_double * n).from_address(inputs[2]))
            stuck.extend((lat[k], before[k]) for k in range(n)
                         if again[k] and after[k] == before[k])

        with mock.patch.object(router, "_walk", walk_spy):
            batch = router.route_batch(src, lats, lons, t)
        assert len(stuck) == self.ZERO_HOP_REFLAGS
        reference = GeospatialRouter(topo)
        row = {float(lat): i for i, lat in enumerate(lats)}
        for lat, length in stuck:
            i = row[lat]
            expected = reference.route(int(src[i]), lat, float(lons[i]), t)
            assert batch.result(i) == expected
            assert not expected.delivered and expected.deflected
            assert len(expected.path) == length < router.max_hops + 1

    def test_every_flagged_packet_gets_a_reference_turn(self):
        """On every wave the reference walk takes at least one turn on
        each flagged packet, and on no other: its calls are at least
        the flags."""
        t = 90.0
        for shell, dead, torn, packets in self.WAVES + [
                (starlink(), 200, 100, 600), (starlink(), 0, 0, 200)]:
            topo = _faulted(shell, 1, dead, torn)
            router = BatchGeoRouter(topo)
            src, lats, lons = _wave(shell, packets, 1)
            calls = []
            route = router.scalar.route

            def spy(source, lat, lon, when, *, walked=None):
                calls.append((source, lat, lon))
                return route(source, lat, lon, when, walked=walked)

            with mock.patch.object(router.scalar, "route", spy):
                batch = router.route_batch(src, lats, lons, t)
            flagged = np.nonzero(batch.fallback)[0]
            assert set(calls) == {
                (int(src[i]), float(lats[i]), float(lons[i]))
                for i in flagged}
            assert len(calls) >= flagged.size

    @pytest.mark.parametrize("cores", [1, 2])
    def test_no_packet_writes_past_its_compact_slot(self, cores,
                                                    monkeypatch):
        """The flat move array starts out filled with 0xFF, which is no
        neighbour-table column.  When the compiled walk returns, each
        chunk's packets claim back-to-back slots of one byte per hop
        from the chunk's region start, every claimed byte is a column
        and every byte outside the claimed slots still holds the
        sentinel: no packet wrote past its slot, on one thread or two.
        The faulted Starlink wave has hand-offs and a continued walk
        longer than 64 nodes, the stretched star fills 64-node slots,
        and every path read back after the continuations equals the
        reference walk."""
        from repro.runtime import planner
        sentinel = 0xFF
        chunk, cap = 64, 64
        pools, walked = [], []

        class Filled(batch_routing.BatchRouteResult):
            __slots__ = ()

            def __init__(self, n, wiring, capacity=0):
                super().__init__(n, wiring, capacity)
                self._moves.fill(sentinel)

        class RecordingPool(batch_routing.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        finish = BatchGeoRouter._finish

        def spy(router, out, *args, **kwargs):
            walked.append((out._moves.copy(), out._offsets.copy(),
                           out.path_len.copy()))
            return finish(router, out, *args, **kwargs)

        monkeypatch.setattr(batch_routing, "BatchRouteResult", Filled)
        monkeypatch.setattr(batch_routing, "ThreadPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(BatchGeoRouter, "_finish", spy)
        monkeypatch.setattr(batch_routing, "_CHUNK_PACKETS", chunk)
        monkeypatch.setattr(planner, "usable_cores", lambda: cores)
        longest = full = 0
        for shell, dead, torn, packets in [(starlink(), 40, 25, 400),
                                           (_stretched_star(), 0, 0, 150)]:
            topo = _faulted(shell, 1, dead, torn)
            router = BatchGeoRouter(topo)
            src, lats, lons = _wave(shell, packets, 1)
            batch = router.route_batch(src, lats, lons, 90.0)
            flat, offsets, lengths = walked.pop()
            moves = lengths - 1
            assert flat.size == packets * cap
            claimed = np.zeros(flat.size, dtype=bool)
            for lo in range(0, packets, chunk):
                part = slice(lo, lo + chunk)
                ends = lo * cap + np.cumsum(moves[part])
                assert np.array_equal(offsets[part], ends - moves[part])
            for start, length in zip(offsets, moves):
                claimed[start:start + length] = True
            assert claimed.sum() == moves.sum()
            assert np.all(flat[~claimed] == sentinel)
            assert np.all(flat[claimed] < 4)
            assert batch.fallback.any()
            for i in range(packets):
                assert batch.result(i) == router.scalar.route(
                    int(src[i]), float(lats[i]), float(lons[i]), 90.0), i
            full += int(np.count_nonzero(lengths == cap))
            longest = max(longest, int(batch.path_len.max()))
        assert pools == ([] if cores == 1 else [2, 2])
        assert full > 0 and longest > cap


#: The sanitizer leg's child: build the kernel under ASan/UBSan into a
#: fresh cache, then hold a faulted Starlink wave (flagged packets, one
#: path longer than 64 nodes) and stretched star packets (walks that
#: fill a 64-node slot, seam-revisit checks over the on-stack node
#: buffer) to the reference walk, counting the 64-node hand-offs and
#: the walks the compiled walk resumed from a prefix (the prefix
#: buffers and the resume path run under the sanitizers too).  Each
#: star packet is its own one-packet wave, so its 64-byte move region
#: ends where the heap block does and a write past it cannot land in a
#: neighbour's slot.
#: Then hold the same object's group arithmetic (``modexp``, the
#: ``fixed_base`` comb, ``jacobi``) to ``pow``.
_SANITIZED_CHILD = r"""
from repro.topology import _walk_kernel
_walk_kernel._CFLAGS = _walk_kernel._CFLAGS + [
    "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
assert _walk_kernel.load_kernel() is not None, "sanitized build failed"
from tests.test_batch_routing import _faulted, _stretched_star, _wave
from repro.orbits.constellation import starlink
from repro.runtime import planner
from repro.topology import batch_routing
from repro.topology.batch_routing import BatchGeoRouter
# The 400-packet Starlink wave runs as 7 chunks on 2 threads, so the
# sanitizers also watch concurrent writes at chunk boundaries.
batch_routing._CHUNK_PACKETS = 64
planner.usable_cores = lambda: 2
threads = []
class CountingPool(batch_routing.ThreadPoolExecutor):
    def __init__(self, max_workers):
        threads.append(max_workers)
        super().__init__(max_workers=max_workers)
batch_routing.ThreadPoolExecutor = CountingPool
full = []
finish = BatchGeoRouter._finish
def spy(router, out, *args, **kwargs):
    full.append(int((out.path_len[out.fallback] == 64).sum()))
    return finish(router, out, *args, **kwargs)
BatchGeoRouter._finish = spy
resumed = []
walk = BatchGeoRouter._walk
def walk_spy(router, kernel, table, n, cap, inputs, outputs):
    if inputs[1] is not None:
        resumed.append(n)
    walk(router, kernel, table, n, cap, inputs, outputs)
BatchGeoRouter._walk = walk_spy
flagged = longest = 0
for shell, dead, torn, packets, wave in [(starlink(), 40, 25, 400, 400),
                                         (_stretched_star(), 0, 0, 40, 1)]:
    topo = _faulted(shell, 1, dead, torn)
    router = BatchGeoRouter(topo)
    src, lats, lons = _wave(shell, packets, 1)
    for lo in range(0, packets, wave):
        part = slice(lo, lo + wave)
        batch = router.route_batch(src[part], lats[part], lons[part], 90.0)
        for i in range(len(batch)):
            assert batch.result(i) == router.scalar.route(
                int(src[lo + i]), float(lats[lo + i]), float(lons[lo + i]),
                90.0), lo + i
        flagged += int(batch.fallback.sum())
        longest = max(longest, int(batch.path_len.max()))
# The same object's modexp, held to pow on random inputs and the
# compiled window's edges, on both groups the crypto tests use.
import random
from repro.crypto import SCHNORR_GROUP
from repro.obs.metrics import MetricsRegistry
from repro.crypto.group import SchnorrGroup
rng = random.Random(34)
checked = 0
for group in (SCHNORR_GROUP, SchnorrGroup(p=23, q=11, g=4)):
    p = group.p
    bases = [0, 1, 2, p - 1, p, p + 1, 2 ** 512 - 1]
    bases += [rng.randrange(2 ** 512) for _ in range(20)]
    exponents = [0, 1, 31, 32, group.q, p - 1, 2 ** 511, 2 ** 512 - 1]
    exponents += [rng.randrange(2 ** rng.randrange(1, 513))
                  for _ in range(12)]
    for base in bases:
        for exponent in exponents:
            assert group.power(base, exponent) == pow(base, exponent, p), (
                base, exponent, p)
            checked += 1
    # fixed_base (the comb built under the sanitizers too) and jacobi,
    # each held to pow on the same edges and random draws.
    q = group.q
    for exponent in ([0, 1, 255, 256, q - 1, q, q + 1, -1, -q, 2 ** 512,
                      2 ** 600 + 3] + exponents):
        member = group.generate(exponent)
        assert member == pow(group.g, exponent % q, p), (exponent, p)
        for x in (member, p - member, 1, p - 1, p, 0, exponent % p):
            assert group.is_element(x) is (
                0 < x < p and pow(x, q, p) == 1), (x, p)
            checked += 1
print(flagged, longest, max(threads), checked, sum(full), sum(resumed))
"""


def _sanitizer_runtimes():
    """``libasan.so`` for LD_PRELOAD, or None without a compiler or
    without both sanitizer runtimes."""
    compiler = _walk_kernel._find_compiler()
    if compiler is None:
        return None
    found = []
    for lib in ("libasan.so", "libubsan.so"):
        try:
            path = subprocess.run(
                [compiler, f"-print-file-name={lib}"], capture_output=True,
                text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
        if not (os.path.isabs(path) and os.path.exists(path)):
            return None
        found.append(path)
    return found[0]


class TestKernelUnderSanitizers:
    def test_sanitized_kernel_matches_reference_walk(self, tmp_path):
        """The compiled walk built with -fsanitize=address,undefined
        writes every flag site's prefix, fills a 64-node slot and
        routes a faulted wave, chunked across two threads, exactly like
        the reference walk, and its group arithmetic answers like
        ``pow``, with no out-of-bounds access and no undefined
        behaviour."""
        libasan = _sanitizer_runtimes()
        if libasan is None:
            pytest.skip("no C compiler or no ASan/UBSan runtime")
        repo = pathlib.Path(__file__).resolve().parent.parent
        # PYTHONMALLOC=malloc gives every small buffer (the resumed
        # walks' array.array prefixes and moves) its own heap block,
        # which ASan bounds; pymalloc would pool them in arenas.
        env = dict(os.environ, LD_PRELOAD=libasan,
                   ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc",
                   REPRO_KERNEL_CACHE=str(tmp_path),
                   PYTHONPATH=os.pathsep.join([str(repo / "src"),
                                               str(repo)]))
        env.pop("REPRO_NO_CKERNEL", None)
        child = subprocess.run(
            [sys.executable, "-c", _SANITIZED_CHILD], cwd=repo, env=env,
            capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr[-3000:]
        flagged, longest, threads, checked, full, resumed = map(
            int, child.stdout.split())
        assert flagged > 0 and longest > 64 and threads >= 2
        assert checked >= 1000 and full > 0 and resumed > 0


class TestKernelSourceWarnings:
    def test_kernel_source_compiles_without_warnings(self, tmp_path):
        """The kernel source, built with its own flags plus ``-Wall
        -Wextra -Wconversion -Werror``, compiles clean: a sign or width
        slip (say, the walk's int64 path cursor narrowed to int32)
        fails here instead of landing silently."""
        compiler = _walk_kernel._find_compiler()
        if compiler is None:
            pytest.skip("no C compiler")
        source = tmp_path / "walk.c"
        source.write_text(_walk_kernel._KERNEL_SOURCE)
        build = subprocess.run(
            [compiler] + _walk_kernel._CFLAGS
            + ["-Wall", "-Wextra", "-Wconversion", "-Werror", str(source),
               "-o", str(tmp_path / "walk.so"), "-lm"],
            capture_output=True, text=True, timeout=120)
        assert build.returncode == 0, build.stderr[-3000:]


class TestDijkstraBatchAndInvalidation:
    def test_route_cache_invalidated_by_fault_events(self):
        """Regression: cached graphs must not survive fault injection.

        DijkstraRouter once cached its per-epoch graph and kept routing
        through satellites that had since died; it now caches nothing.
        """
        topo = _topology("square")
        router = DijkstraRouter(topo)
        first, = router.route_many([0], [30], 0.0)
        assert first.delivered and len(first.path) > 2
        victim = first.path[1]
        topo.fail_satellite(victim)
        rerouted, = router.route_many([0], [30], 0.0)
        assert rerouted.delivered
        assert victim not in rerouted.path

    def test_route_many_matches_scalar(self):
        topo = _topology("square")
        topo.fail_satellite(7)
        topo.fail_isl(20, topo.isl_neighbors(20)[0])
        router = DijkstraRouter(topo)
        rng = np.random.default_rng(17)
        total = topo.constellation.total_satellites
        srcs = [int(s) for s in rng.integers(0, total, 30)]
        dsts = [int(d) for d in rng.integers(0, total, 30)]
        many = router.route_many(srcs, dsts, 45.0)
        for result, s, d in zip(many, srcs, dsts):
            single, = router.route_many([s], [d], 45.0)
            assert result.delivered == single.delivered
            if result.delivered:
                assert abs(result.delay_s - single.delay_s) < 1e-12
                assert len(result.path) == len(single.path)

    @pytest.mark.parametrize("srcs, dsts, t, contract", [
        pytest.param([2.5], [7], 0.0, SOURCE_CONTRACT, id="float-src"),
        pytest.param([True], [7], 0.0, SOURCE_CONTRACT, id="bool-src"),
        pytest.param([3], [7.0], 0.0, SOURCE_CONTRACT, id="float-dst"),
        pytest.param([3], [False], 0.0, SOURCE_CONTRACT, id="bool-dst"),
        pytest.param([3, np.float64(4.0)], [7, 8], 0.0, SOURCE_CONTRACT,
                     id="numpy-float-src"),
        pytest.param([3], [7], math.nan, EPOCH_CONTRACT, id="nan-t"),
        pytest.param([3], [7], math.inf, EPOCH_CONTRACT, id="inf-t"),
        pytest.param([], [], -math.inf, EPOCH_CONTRACT, id="empty-inf-t"),
    ])
    def test_route_many_refuses_what_is_not_an_index(self, srcs, dsts, t,
                                                     contract):
        """One ingress with the scalar walk: a float or bool endpoint
        used to be truncated (2.5 routed from satellite 2, True from 1)
        and a NaN epoch came back "undelivered" instead of raising."""
        router = DijkstraRouter(_topology("square"))
        with pytest.raises(ValueError, match=re.escape(contract)):
            router.route_many(srcs, dsts, t)

    def test_route_many_out_of_range_index_is_undelivered(self):
        topo = _topology("square")
        total = topo.constellation.total_satellites
        router = DijkstraRouter(topo)
        results = router.route_many([-1, total, 3, np.int64(3)],
                                    [7, 7, total, 7], 0.0)
        assert [r.delivered for r in results] == [False, False, False, True]


class TestEpochSweepEquivalence:
    """route_sweep vs the per-epoch scalar walk, bit for bit."""

    @both_engines
    @pytest.mark.parametrize("name", ["starlink", "iridium", "tall"])
    def test_sweep_matches_per_epoch_scalar(self, name, engine):
        topo = _topology(name)
        router = BatchGeoRouter(topo)
        src, lats, lons, ts = _sweep_wave(topo.constellation, 96,
                                          epochs=6, seed=31)
        swept = router.route_sweep(src, lats, lons, ts)
        assert_sweep_bit_equal(swept, router.scalar, src, lats, lons, ts)

    def test_sweep_under_no_ckernel_env(self, monkeypatch):
        """REPRO_NO_CKERNEL=1 selects the reference walk; same answer."""
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        assert batch_routing.load_kernel() is None
        src, lats, lons, ts = _sweep_wave(topo.constellation, 64,
                                          epochs=5, seed=32)
        swept = router.route_sweep(src, lats, lons, ts)
        assert_sweep_bit_equal(swept, router.scalar, src, lats, lons, ts)
        _assert_power_is_pow()

    @both_engines
    def test_sweep_shuffled_epochs(self, engine):
        """Arbitrary (unsorted, repeated) epoch order scatters back."""
        topo = _topology("wide")
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 80, seed=33)
        rng = np.random.default_rng(33)
        ts = rng.choice([0.0, 75.0, 150.0, 900.0], size=80)
        swept = router.route_sweep(src, lats, lons, ts)
        assert_sweep_bit_equal(swept, router.scalar, src, lats, lons, ts)

    @both_engines
    def test_sweep_with_faults(self, engine):
        """Deflection fallbacks route at the right epoch too."""
        topo = _topology("starlink")
        rng = np.random.default_rng(34)
        for sat in rng.choice(topo.constellation.total_satellites, 30,
                              replace=False):
            topo.fail_satellite(int(sat))
        router = BatchGeoRouter(topo)
        src, lats, lons, ts = _sweep_wave(topo.constellation, 60,
                                          epochs=4, seed=35)
        swept = router.route_sweep(src, lats, lons, ts)
        assert_sweep_bit_equal(swept, router.scalar, src, lats, lons, ts)

    def test_sweep_single_epoch_equals_route_batch(self):
        """A constant-ts sweep is exactly one route_batch call."""
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 40, seed=36)
        swept = router.route_sweep(src, lats, lons,
                                   np.full(40, 120.0))
        batch = router.route_batch(src, lats, lons, 120.0)
        assert np.array_equal(swept.delivered, batch.delivered)
        assert np.array_equal(swept.delay_s, batch.delay_s)
        assert [swept.path(i) for i in range(len(swept))] \
            == [batch.path(i) for i in range(len(batch))]

    def test_empty_sweep(self):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        swept = router.route_sweep([], [], [], [])
        assert len(swept) == 0

    def test_sweep_rejects_mismatched_ts(self):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        with pytest.raises(ValueError):
            router.route_sweep([0, 1], [0.0, 0.0], [0.0, 0.0], [0.0])

    def test_sweep_trials_matches_scalar_relay_loop(self):
        """sweep_trials == the retired snapshot+route per-epoch loop,
        including epochs whose ground source is uncovered."""
        topo = _topology("square")
        router = BatchGeoRouter(topo, max_hops=RELAY_MAX_HOPS)
        scalar = GeospatialRouter(topo, max_hops=RELAY_MAX_HOPS)
        # 53 deg shell: a 60 deg source sits on the coverage fringe
        # (served ~9 of these 24 epochs), so the sweep mixes covered
        # and uncovered epochs; the destination stays in-band.
        src = (math.radians(60.0), math.radians(116.4))
        dst = (math.radians(40.7), math.radians(-74.0))
        ts = [5700.0 * i / 24 for i in range(24)]
        src_sats, wave = router.sweep_trials(src, dst, ts)
        seen_uncovered = False
        for i, t in enumerate(ts):
            snap = snapshot_for(topo.propagator, t)
            expected_sat = snap.serving_satellite(*src)
            assert int(src_sats[i]) == expected_sat
            if expected_sat < 0:
                seen_uncovered = True
                assert not bool(wave.delivered[i])
                assert float(wave.delay_s[i]) == 0.0
                assert wave.path(i) == []
                continue
            expected = scalar.route(expected_sat, dst[0], dst[1], t)
            assert bool(wave.delivered[i]) == expected.delivered
            assert float(wave.delay_s[i]) == expected.delay_s
            assert int(wave.hops[i]) == expected.hops
            assert wave.path(i) == expected.path
        assert seen_uncovered, "pick a source that is sometimes uncovered"


class TestSweepAcrossAFault:
    @both_engines
    def test_fault_between_two_sweeps_rebuilds_every_epoch(self, engine):
        """Sweep E epochs, fail a satellite on a packet's path, sweep the
        same epochs again: E table builds per sweep, 2E in all, and
        every element equals the reference walk under its fault
        state."""
        from repro.obs.metrics import MetricsRegistry
        topo = _topology("starlink")
        metrics = MetricsRegistry()
        router = BatchGeoRouter(topo, metrics=metrics)
        epochs = 4
        src, lats, lons, ts = _sweep_wave(topo.constellation, 64,
                                          epochs=epochs, seed=41)
        before = router.route_sweep(src, lats, lons, ts)
        assert_sweep_bit_equal(before, GeospatialRouter(topo), src, lats,
                               lons, ts)
        counters = metrics.snapshot()["counters"]
        assert counters["routing.table_builds"] == epochs
        assert counters["routing.sweeps"] == 1
        assert counters["routing.sweep_epochs"] == epochs
        victim = max(_paths(before), key=len)[1]
        topo.fail_satellite(victim)
        after = router.route_sweep(src, lats, lons, ts)
        counters = metrics.snapshot()["counters"]
        assert counters["routing.table_builds"] == 2 * epochs
        assert_sweep_bit_equal(after, GeospatialRouter(topo), src, lats,
                               lons, ts)
        assert all(victim not in path for path in _paths(after))


class TestHopBudgetRunsOut:
    @both_engines
    @pytest.mark.parametrize("budget", [0, 1, 5])
    def test_walk_stops_at_max_hops(self, budget, engine):
        """``max_hops=k`` cuts every walk longer than k hops: the packet
        is undelivered with k + 1 nodes, exactly as the reference walk
        with the same budget, on both lanes.  A zero budget leaves even
        a packet whose source covers its destination undelivered at its
        source."""
        topo = _topology("starlink")
        src, lats, lons = _wave(topo.constellation, 60, seed=23)
        # Packet 0's destination is its source's own subpoint.
        snap = snapshot_for(topo.propagator, 30.0)
        lats[0], lons[0] = snap.subpoints[int(src[0])]
        unlimited = GeospatialRouter(topo)
        scalar = GeospatialRouter(topo, max_hops=budget)
        batch = BatchGeoRouter(topo, max_hops=budget).route_batch(
            src, lats, lons, 30.0)
        cut = 0
        for i in range(len(src)):
            args = (int(src[i]), float(lats[i]), float(lons[i]), 30.0)
            assert batch.result(i) == scalar.route(*args), i
            if unlimited.route(*args).hops > budget:
                cut += 1
                assert not batch.delivered[i], i
                assert int(batch.path_len[i]) == budget + 1, i
        assert unlimited.route(*(int(src[0]), float(lats[0]),
                                 float(lons[0]), 30.0)).delivered
        assert cut >= 10
        if budget == 0:
            assert not batch.delivered.any()
            assert np.all(batch.path_len == 1)


#: Shells the move encoding must round-trip on: one plane (left ==
#: right == the satellite itself), two planes (left == right), two
#: slots (up == down), a star with its seam, and faulted Starlink
#: (deflected walks).
ROUND_TRIP_SHELLS = {
    "one-plane": lambda: Constellation(
        name="one-plane", num_planes=1, sats_per_plane=12,
        altitude_km=550.0, inclination_deg=53.0),
    "two-plane": lambda: Constellation(
        name="two-plane", num_planes=2, sats_per_plane=6,
        altitude_km=1200.0, inclination_deg=87.9, raan_spread=np.pi),
    "two-slot": lambda: Constellation(
        name="two-slot", num_planes=5, sats_per_plane=2,
        altitude_km=550.0, inclination_deg=53.0),
    "star": iridium,
    "faulted-starlink": starlink,
}


class TestPathIsSourceAndMoves:
    @pytest.mark.parametrize("name", sorted(ROUND_TRIP_SHELLS))
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 6000.0))
    def test_encoding_round_trips_reference_paths(self, name, seed, t):
        """Any reference-walk path, encoded as moves and decoded from
        its source, is the same node list, read one packet at a time
        (``path``) or, where the compiled walk is present, all together
        (``decode_paths``, which decodes the hand-off prefixes)."""
        shell = ROUND_TRIP_SHELLS[name]()
        faults = (30, 20) if name == "faulted-starlink" else (0, 0)
        topo = _faulted(shell, seed, *faults)
        scalar = GeospatialRouter(topo)
        src, lats, lons = _wave(shell, 24, seed)
        expected = [scalar.route(int(s), float(a), float(b), t).path
                    for s, a, b in zip(src, lats, lons)]
        lengths = np.array([len(p) for p in expected], dtype=np.int32)
        nodes = np.array([n for p in expected for n in p], dtype=np.int32)
        wiring = grid_neighbor_table(shell)
        moves = batch_routing._encode_moves(wiring, nodes, lengths)
        assert moves.dtype == np.uint8
        assert moves.size == int(lengths.sum()) - len(expected)
        out = batch_routing.BatchRouteResult(len(expected), wiring)
        out._source[:] = src
        hops = lengths - 1
        out._append(np.arange(len(expected)), moves,
                    np.cumsum(hops) - hops, lengths)
        assert [out.path(i) for i in range(len(out))] == expected
        kernel = load_kernel()
        if kernel is not None:
            decoded = np.empty(nodes.size, dtype=np.int32)
            sel = np.arange(len(out), dtype=np.int64)
            kernel.decode_paths(len(out), *(
                batch_routing._ptr(array) for array in (
                    sel, out._source, out._offsets, out.path_len,
                    out._moves, wiring, decoded)))
            assert np.array_equal(decoded, nodes)

    def test_a_hop_off_the_grid_raises(self):
        wiring = grid_neighbor_table(starlink())
        a = 0
        b = next(n for n in range(1, len(wiring)) if n not in wiring[a])
        with pytest.raises(ValueError, match="not \\+Grid neighbours"):
            batch_routing._encode_moves(
                wiring, np.array([a, b], dtype=np.int32),
                np.array([2], dtype=np.int32))

    @needs_kernel
    def test_kernel_refuses_a_path_cap_past_its_node_buffer(self):
        """The compiled walk's revisit check reads an on-stack buffer of
        64 nodes, so a chunk asking for a larger (or empty) path cap is
        refused before any packet is written."""
        topo = _topology("starlink")
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 4, seed=1)
        src = router._check_sources(src)
        out = router._result(src, 4 * 65)
        out._moves[:] = 0xFF
        for cap in (0, 65):
            with pytest.raises(ValueError, match="node buffer"):
                router._route_chunk_kernel(load_kernel(), router._table(0.0),
                                           src, lats, lons, out,
                                           slice(0, 4), cap)
        assert np.all(out._moves == 0xFF)
        assert not out.path_len.any() and not out.delivered.any()

    @both_engines
    def test_a_path_costs_one_byte_per_hop_plus_its_source(self, engine):
        """The memory claim, without measuring RSS: over a faulted
        Starlink wave (hand-offs included) the path cells packets claim
        total exactly ``hops.sum()`` bytes, plus 4 bytes of source per
        packet; a healthy wave claims the flat array's bytes 0 to
        ``hops.sum()`` and nothing else."""
        topo = _faulted(starlink(), 5, 40, 25)
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 400, seed=5)
        batch = router.route_batch(src, lats, lons, 90.0)
        assert batch.fallback.any()
        claimed = np.zeros(batch._moves.size, dtype=bool)
        for start, hops in zip(batch._offsets, batch.hops):
            assert not claimed[start:start + hops].any()
            claimed[start:start + hops] = True
        assert (int(claimed.sum()) * batch._moves.itemsize
                == int(batch.hops.sum()))
        assert batch._source.nbytes == 4 * len(batch)
        healthy = BatchGeoRouter(_topology("starlink")).route_batch(
            src, lats, lons, 90.0)
        assert not healthy.fallback.any()
        assert healthy._used == int(healthy.hops.sum())

    @needs_kernel
    def test_a_wave_past_one_chunk_maps_its_move_region(self):
        """A move region of 4 MiB or more (a wave of two chunks at the
        64-node cap) is an anonymous mapping rather than a NumPy
        allocation, so no huge page backs it; its paths read back like
        the reference walk's."""
        import mmap
        topo = _topology("starlink")
        router = BatchGeoRouter(topo)
        packets = batch_routing._CHUNK_PACKETS + 100
        src, lats, lons = _wave(topo.constellation, packets, seed=8)
        batch = router.route_batch(src, lats, lons, 60.0)
        assert isinstance(batch._moves.base.obj, mmap.mmap)
        assert batch._moves.size == 64 * packets
        for i in range(0, packets, 997):
            assert batch.result(i) == router.scalar.route(
                int(src[i]), float(lats[i]), float(lons[i]), 60.0), i


def _kernel_reps(router, lat, lon):
    """The compiled walk's ``destination_reps`` of one destination."""
    reps = (ctypes.c_double * 4)()
    load_kernel().destination_reps(lat, lon, *router._inclination_terms,
                                   reps)
    return tuple(reps)


def _scalar_reps(router, lat, lon):
    (a0, g0), (a1, g1) = router.scalar.system.both_representations(lat,
                                                                    lon)
    return a0, g0, a1, g1


@needs_kernel
class TestDestinationConversion:
    """The compiled walk converts each destination itself, with the
    libm the ``math`` module binds: NumPy's vectorised ``arcsin`` /
    ``arctan2`` round differently from ``math.asin`` / ``math.atan2``
    on some hosts, and only decisions inside ``hop_decision``'s guard
    band would have shown it."""

    @pytest.mark.parametrize("name", sorted(CONSTELLATIONS))
    def test_coordinates_are_the_reference_bits(self, name):
        router = BatchGeoRouter(_topology(name))
        rng = np.random.default_rng(17)
        lats = list(rng.uniform(-math.pi / 2, math.pi / 2, 3000))
        lons = list(rng.uniform(-math.pi, math.pi, 2000)) + list(
            rng.uniform(-1e3, 1e3, 1000))
        # Poles, the equator, the antimeridian and signed zeros.
        edges = [(lat, lon)
                 for lat in (-math.pi / 2, -0.0, 0.0, math.pi / 2)
                 for lon in (-math.pi, -0.0, 0.0, math.pi, 2 * math.pi,
                             -2 * math.pi, 1e300)]
        for lat, lon in list(zip(lats, lons)) + edges:
            kernel = _kernel_reps(router, lat, lon)
            scalar = _scalar_reps(router, lat, lon)
            assert ([x.hex() for x in kernel]
                    == [x.hex() for x in scalar]), (lat, lon)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(ROUND_TRIP_SHELLS)),
           t=st.floats(-1e6, 1e6),
           lat=st.floats(-math.pi / 2, math.pi / 2),
           lon=st.floats(-1e3, 1e3))
    def test_angle_ranges_the_compiled_wrap_relies_on(self, name, t, lat,
                                                     lon):
        """The compiled walk's ``wrap_signed_diff`` has no exact
        fallback: it is bit-exact only for differences in (-2.5 pi,
        2 pi).  That holds because every snapshot alpha / gamma lies in
        [0, 2 pi) and every destination alpha in [0, 2 pi) and gamma in
        [-pi/2, 3 pi/2]."""
        shell = ROUND_TRIP_SHELLS[name]()
        snap = snapshot_for(make_propagator(shell, "ideal"), t)
        for angles in (snap.raan_ecef, snap.arg_latitude):
            assert angles.min() >= 0.0 and angles.max() < 2 * math.pi
        router = BatchGeoRouter(GridTopology(
            make_propagator(shell, "ideal"), []))
        for point in ((lat, lon), (-lat, -lon), (0.0, lon)):
            a0, g0, a1, g1 = _kernel_reps(router, *point)
            assert _scalar_reps(router, *point) == (a0, g0, a1, g1)
            for alpha in (a0, a1):
                assert 0.0 <= alpha < 2 * math.pi
            for gamma in (g0, g1):
                assert -math.pi / 2 <= gamma <= 3 * math.pi / 2


class TestRelayHopBudgetParity:
    """The 256-vs-512 hop-budget parity bug (shared RELAY_MAX_HOPS).

    The scalar relay pipeline always routed with ``max_hops=512``
    while ``BatchGeoRouter`` defaults to 256; porting the pipeline to
    the batch plane without threading the budget through would
    silently fail every walk longer than 256 hops.  A real Iridium
    shell cannot produce one (the visited-set walk is bounded by its
    66 satellites), so the regression rig is an Iridium-style star
    shell (two pi-spread planes, 86.4 deg) scaled up in-plane until a
    near-antipodal slot pair needs a >256-hop walk.
    """

    @staticmethod
    def _long_walk_case():
        topo = GridTopology(make_propagator(_stretched_star(), "ideal"), [])
        snap = snapshot_for(topo.propagator, 0.0)
        wide = GeospatialRouter(topo, max_hops=RELAY_MAX_HOPS)
        # Scan in-plane slots around the ring antipode for a walk that
        # needs more than 256 hops (seam deflections make the exact
        # hop count slot-dependent, so probe a window; slot 275 walks
        # ~400 hops at the relay budget on this shell).
        for dest in range(275, 330, 5):
            lat, lon = snap.subpoints[dest]
            result = wide.route(0, float(lat), float(lon), 0.0)
            if result.delivered and result.hops > 256:
                return topo, float(lat), float(lon), result
        raise AssertionError("no >256-hop pair found in the window")

    def test_default_budget_drops_long_walks(self):
        topo, lat, lon, wide_result = self._long_walk_case()
        narrow = GeospatialRouter(topo, max_hops=256)
        assert not narrow.route(0, lat, lon, 0.0).delivered

    @both_engines
    def test_batch_plane_honors_relay_budget(self, engine):
        topo, lat, lon, expected = self._long_walk_case()
        router = BatchGeoRouter(topo, max_hops=RELAY_MAX_HOPS)
        batch = router.route_batch([0], [lat], [lon], 0.0)
        assert bool(batch.delivered[0])
        assert int(batch.hops[0]) == expected.hops > 256
        assert float(batch.delay_s[0]) == expected.delay_s
        assert batch.path(0) == expected.path


class TestFig18bPanelParity:
    """The batched Fig. 18b pipeline == the retired scalar pipeline."""

    @staticmethod
    def _scalar_trials(constellation, kind, samples):
        from repro.experiments.relay import BEIJING, NEW_YORK
        propagator = make_propagator(constellation, kind)
        topology = GridTopology(propagator, [])
        router = GeospatialRouter(topology, max_hops=512)
        trials = []
        for i in range(samples):
            t = 5700.0 * i / samples
            snap = snapshot_for(propagator, t)
            src_sat = snap.serving_satellite(*BEIJING)
            if src_sat < 0:
                trials.append((t, False, 0.0, 0))
                continue
            r = router.route(src_sat, NEW_YORK[0], NEW_YORK[1], t)
            trials.append((t, r.delivered, r.delay_s * 1000.0, r.hops))
        return trials

    @pytest.mark.parametrize("factory", [starlink, iridium])
    def test_panel_equals_scalar_pipeline(self, factory):
        from repro.experiments.relay import (compare_ideal_vs_j4,
                                             relay_trials)
        constellation = factory()
        samples = 8
        for kind in ("ideal", "j4"):
            expected = self._scalar_trials(constellation, kind, samples)
            got = [(tr.t_s, tr.delivered, tr.delay_ms, tr.hops)
                   for tr in relay_trials(constellation, kind,
                                          samples=samples)]
            assert got == expected, (constellation.name, kind)
        # Panel values derive from the trials with the exact formulas
        # of the retired pipeline; equality is therefore exact too.
        panel = compare_ideal_vs_j4(constellation, samples=samples)
        ideal = self._scalar_trials(constellation, "ideal", samples)
        j4 = self._scalar_trials(constellation, "j4", samples)
        ideal_ok = [t for t in ideal if t[1]]
        j4_ok = [t for t in j4 if t[1]]
        assert panel.delivery_rate_ideal == len(ideal_ok) / samples
        assert panel.delivery_rate_j4 == len(j4_ok) / samples
        assert panel.mean_delay_ideal_ms == \
            sum(t[2] for t in ideal_ok) / len(ideal_ok)
        assert panel.mean_delay_j4_ms == \
            sum(t[2] for t in j4_ok) / len(j4_ok)
