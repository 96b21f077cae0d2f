"""The reference walk against a frozen copy of itself, and its ingress.

``GeospatialRouter.route`` is what every other routing plane is held
to, so a rewrite of the walk itself needs an oracle that does not move
with it.  ``_ParentWalk`` is the walk as it read the snapshot arrays
before its per-hop reads became ``ndarray.item()`` Python floats:
``route`` and every helper it reaches, copied verbatim.  The
differential asserts ``==`` on every ``RouteResult`` field -- delay and
distance as float bits, ``deflected`` by name because
``RouteResult.__eq__`` skips it -- and on the one-hop route from every
node the packet visits (cover, degraded delivery, next hop or
deflection, hop length), over generated packets on full-torus, seam
and degenerate shells under fault cocktails.  The walk makes those
per-hop decisions inline, so
the one-hop route is how a test reads them; the oracle keeps its
own ``_covers``.  The same
packets through ``route_batch`` must match the oracle on whichever
lane this host runs (the compiled walk, or the reference walk under
``REPRO_NO_CKERNEL=1``).

Below that: the one source contract of every routing entry point, and
metamorphic relations between the walk and the graph it walks, which
need no oracle at all.
"""

import contextlib
import math
from typing import Optional, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import HALF_PI, SPEED_OF_LIGHT_KM_S, TWO_PI
from repro.obs.metrics import MetricsRegistry
from repro.orbits.constellation import Constellation, iridium, starlink
from repro.orbits.coordinates import central_angle, wrap_signed
from repro.orbits.propagator import IdealPropagator
from repro.orbits.snapshot import ConstellationSnapshot, grid_neighbor_table
from repro.topology import batch_routing
from repro.topology._walk_kernel import load_kernel
from repro.topology.batch_routing import BatchGeoRouter
from repro.topology.grid import GridTopology
from repro.topology.routing import (
    DESTINATION_CONTRACT,
    DijkstraRouter,
    GeospatialRouter,
    RouteResult,
)


class _ParentWalk(GeospatialRouter):
    """The reference walk on numpy-scalar reads, kept verbatim.

    Construction (coverage angle, degraded slack, coordinate system,
    hop budget) is inherited; ``route`` and every per-hop helper it
    reaches are the old code, so ``_covers`` / ``_next_hop_snap`` /
    ``_hop_offsets_snap`` answer the old way too.  It has no source check:
    that is one of the things the new walk changed.  The per-snapshot
    ISL length memo starts empty, as the old constructor left it.
    """

    _edge_snap: Optional[ConstellationSnapshot] = None
    _edge_km: dict = {}

    def _covers(self, snap: ConstellationSnapshot, sat: int,
                dest_lat: float, dest_lon: float) -> bool:
        sub = snap.subpoints
        return (central_angle(sub[sat, 0], sub[sat, 1],
                              dest_lat, dest_lon)
                <= self.coverage_angle)

    def _hop_offsets_snap(self, snap: ConstellationSnapshot, sat: int,
                          dest_reps: Sequence[Tuple[float, float]]
                          ) -> Tuple[float, float]:
        c = self.topology.constellation
        alpha_s = snap.raan_ecef[sat]
        gamma_s = snap.arg_latitude[sat]
        best: Optional[Tuple[float, float]] = None
        best_metric = math.inf
        for alpha_d, gamma_d in dest_reps:
            da = wrap_signed(alpha_d - alpha_s) / c.delta_raan
            dg = wrap_signed(gamma_d - gamma_s) / c.delta_phase
            metric = abs(da) + abs(dg)
            if metric < best_metric:
                best_metric = metric
                best = (da, dg)
        assert best is not None
        return best

    def _next_hop_snap(self, snap: ConstellationSnapshot, sat: int,
                       dest_reps: Sequence[Tuple[float, float]]
                       ) -> Optional[int]:
        da, dg = self._hop_offsets_snap(snap, sat, dest_reps)
        if abs(da) < 0.5 and abs(dg) < 0.5:
            return None
        neighbors = self.topology.directional_neighbors(sat)
        if abs(da) > abs(dg):
            direction = "right" if da > 0 else "left"
        else:
            direction = "up" if dg > 0 else "down"
        return neighbors[direction]

    def route(self, src_sat: int, dest_lat: float, dest_lon: float,
              t: float) -> RouteResult:
        if not (math.isfinite(dest_lon) and abs(dest_lat) <= HALF_PI):
            raise ValueError(
                f"{DESTINATION_CONTRACT}: got ({dest_lat!r}, {dest_lon!r})")
        topo = self.topology
        # One cached snapshot and one destination (alpha, gamma)
        # conversion serve every hop of this packet.
        snap = self._snapshot(t)
        dest_reps = self.system.both_representations(dest_lat, dest_lon)
        path = [src_sat]
        visited = {src_sat}
        delay = 0.0
        distance = 0.0
        deflected = False
        current = src_sat
        for _ in range(self.max_hops):
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
                    snap, current, dest_reps, visited)
            if (preferred is None or preferred in visited
                    or not topo.isl_up(current, preferred)):
                deflected = True
                preferred = self._best_live_neighbor_snap(
                    snap, current, dest_reps, visited)
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
            pos = snap.positions_ecef
            dx = pos[a, 0] - pos[b, 0]
            dy = pos[a, 1] - pos[b, 1]
            dz = pos[a, 2] - pos[b, 2]
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            self._edge_km[key] = d
        return d

    def _nearly_covers_snap(self, snap: ConstellationSnapshot, sat: int,
                            dest_lat: float, dest_lon: float) -> bool:
        sub = snap.subpoints
        return (central_angle(sub[sat, 0], sub[sat, 1],
                              dest_lat, dest_lon)
                <= self.coverage_angle * self.degraded_slack)

    def _best_live_neighbor_snap(self, snap: ConstellationSnapshot,
                                 sat: int,
                                 dest_reps: Sequence[Tuple[float, float]],
                                 visited: set) -> Optional[int]:
        """Greedy deflection: live unvisited neighbour nearest the goal."""
        best = None
        best_metric = math.inf
        for nbr in self.topology.isl_neighbors(sat):
            if nbr in visited:
                continue
            da, dg = self._hop_offsets_snap(snap, nbr, dest_reps)
            metric = abs(da) + abs(dg)
            if metric < best_metric:
                best_metric = metric
                best = nbr
        return best


#: A full-torus Table 1 shell, a seam shell and the degenerate wirings
#: (left == right, up == down, self-loops).  One propagator per shell,
#: so the snapshot cache serves every example.
PROPAGATORS = {
    "starlink": IdealPropagator(starlink()),
    "iridium": IdealPropagator(iridium()),
    "two-plane": IdealPropagator(Constellation(
        name="two-plane", num_planes=2, sats_per_plane=9,
        altitude_km=1200.0, inclination_deg=87.9, raan_spread=np.pi)),
    "two-slot": IdealPropagator(Constellation(
        name="two-slot", num_planes=9, sats_per_plane=2,
        altitude_km=550.0, inclination_deg=53.0)),
    "one-plane": IdealPropagator(Constellation(
        name="one-plane", num_planes=1, sats_per_plane=11,
        altitude_km=780.0, inclination_deg=86.4)),
}
EPOCHS = (0.0, 615.0, 2871.5)

needs_kernel = pytest.mark.skipif(
    load_kernel() is None, reason="no compiled walk on this host")

#: ``route_batch``'s two lanes: the compiled walk where it can be built,
#: and the reference walk a host without a compiler gets.
LANES = [pytest.param("reference"),
         pytest.param("kernel", marks=needs_kernel)]


def _lane(name):
    if name == "reference":
        return mock.patch.object(batch_routing, "load_kernel",
                                 return_value=None)
    return contextlib.nullcontext()


def _bits(result: RouteResult):
    """Every field of a result, floats as their exact bit patterns."""
    assert type(result.delay_s) is float
    assert type(result.distance_km) is float
    return (result.delivered, result.path, result.delay_s.hex(),
            result.distance_km.hex(), result.degraded, result.deflected)


def _fault_cocktail(topology: GridTopology, rng, dead: int, torn: int):
    total = topology.constellation.total_satellites
    for sat in rng.choice(total, min(dead, total // 4), replace=False):
        topology.fail_satellite(int(sat))
    wiring = grid_neighbor_table(topology.constellation)
    for a, column in zip(rng.integers(0, total, torn),
                         rng.integers(0, 4, torn)):
        topology.fail_isl(int(a), int(wiring[a, column]))


def _degraded_boundary_packet(router: GeospatialRouter, t: float,
                              inside: bool) -> Tuple[int, float, float]:
    """A packet whose source is centred on its destination at an angle
    next to ``coverage_angle * degraded_slack``: at or just inside it
    (delivered degraded where it stands), or just outside (deflects).

    The destination sits on the source's own orbit, ``theta`` ahead of
    it in ``gamma``, so it stays centred while ``theta`` is under half
    a slot; ``theta`` is bisected until the subpoint-to-destination
    angle, computed as the walk computes it, brackets the bound.
    """
    snap = router._snapshot(t)
    src = int(np.argmin(np.abs(np.cos(snap.arg_latitude) - 1.0)))
    alpha = float(snap.raan_ecef[src])
    gamma = float(snap.arg_latitude[src])
    sat_lat, sat_lon = (float(x) for x in snap.subpoints[src])
    bound = router.coverage_angle * router.degraded_slack

    def destination(theta):
        return router.system.to_geodetic(alpha, gamma + theta)

    lo, hi = 0.5 * bound, 1.5 * bound
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if central_angle(sat_lat, sat_lon, *destination(mid)) <= bound:
            lo = mid
        else:
            hi = mid
    lat, lon = destination(lo if inside else hi)
    angle = central_angle(sat_lat, sat_lon, lat, lon)
    assert (angle <= bound) == inside
    assert abs(angle - bound) < 1e-12
    return src, lat, lon


class TestParentWalkOracle:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(PROPAGATORS)),
           seed=st.integers(0, 2**32 - 1),
           dead=st.integers(0, 40), torn=st.integers(0, 25),
           t=st.sampled_from(EPOCHS), probe=st.none())
    # Two slots per plane (up == down): the compiled walk must still
    # check for revisits, or it bounces between the two slots.
    @example(name="two-slot", seed=3, dead=0, torn=0, t=0.0, probe=None)
    # A centred hop one bisection step either side of the degraded
    # bound: the one haversine per hop decides both coverage tests.
    @example(name="two-slot", seed=5, dead=0, torn=0, t=615.0,
             probe="inside")
    @example(name="two-slot", seed=5, dead=0, torn=0, t=615.0,
             probe="outside")
    def test_route_is_bit_identical_to_the_parent_walk(
            self, name, seed, dead, torn, t, probe):
        topology = GridTopology(PROPAGATORS[name], [])
        total = topology.constellation.total_satellites
        rng = np.random.default_rng(seed)
        _fault_cocktail(topology, rng, dead, torn)
        # The old walk reads isl_up and the new one the edge mask,
        # neither part of the copy: hold both to the old formula on
        # every wired edge.
        wiring = grid_neighbor_table(topology.constellation)
        edge_up = topology.edge_liveness()
        for a in range(total):
            for column, b in enumerate(wiring[a].tolist()):
                assert topology.isl_up(a, b) == edge_up[a, column] == (
                    topology.is_up(a) and topology.is_up(b)
                    and not topology.isl_marked_failed(a, b))

        new = GeospatialRouter(topology)
        old = _ParentWalk(topology)
        one_hop_new = GeospatialRouter(topology, max_hops=1)
        one_hop_old = _ParentWalk(topology, max_hops=1)
        packets = 16
        src = rng.integers(0, total, packets)
        lats = rng.uniform(-HALF_PI, HALF_PI, packets)
        lons = rng.uniform(-math.pi, math.pi, packets)
        if probe is not None:
            s, lat, lon = _degraded_boundary_packet(new, t,
                                                    probe == "inside")
            src = np.append(src, s)
            lats = np.append(lats, lat)
            lons = np.append(lons, lon)
        expected = []
        for s, lat, lon in zip(src.tolist(), lats.tolist(), lons.tolist()):
            want = old.route(s, lat, lon, t)
            got = new.route(s, lat, lon, t)
            assert _bits(got) == _bits(want)
            for node in want.path:
                assert _bits(one_hop_new.route(node, lat, lon, t)) == _bits(
                    one_hop_old.route(node, lat, lon, t))
            expected.append(want)
        if probe is not None:
            snap = old._snapshot(t)
            reps = old.system.both_representations(lat, lon)
            assert old._next_hop_snap(snap, s, reps) is None
            assert not old._covers(snap, s, lat, lon)
            degraded_here = RouteResult(True, [s], 0.0, 0.0, degraded=True)
            assert (want == degraded_here) == (probe == "inside")
            assert want.deflected == (probe == "outside")

        # The batch plane, on this host's lane, against the same oracle.
        batch = BatchGeoRouter(topology).route_batch(src, lats, lons, t)
        for i, want in enumerate(expected):
            assert batch.result(i) == want
            assert bool(batch.fallback[i]) == want.deflected


def _hands_back(oracle: _ParentWalk, walked: RouteResult, lat: float,
                lon: float, t: float) -> bool:
    """Whether a turn that has walked ``walked`` stops there: the frozen
    walk's next hop from its last node is Algorithm 1's preferred one,
    live and unvisited (the node neither covers D nor is centred on
    it), with hop budget left."""
    node = walked.path[-1]
    snap = oracle._snapshot(t)
    if (walked.hops >= oracle.max_hops
            or oracle._covers(snap, node, lat, lon)):
        return False
    preferred = oracle._next_hop_snap(
        snap, node, oracle.system.both_representations(lat, lon))
    return (preferred is not None and preferred not in walked.path
            and oracle.topology.isl_up(node, preferred))


class TestWalkedHandOff:
    """``route(..., walked=prefix)`` is one turn of the walk: from a
    prefix of the route's own path (its path, delay, distance and
    ``deflected`` so far: the same walk cut short by a smaller
    ``max_hops``) it takes the next hop and every deflection hop after
    it, and stops before the next preferred-direction hop or at the
    verdict.  The batch plane hands the compiled walk's prefixes over
    this way."""

    @staticmethod
    def _turns(router, s, lat, lon, t, walked):
        """The chain of turns from ``walked`` to the packet's verdict:
        each turn's result is the next one's prefix, and a turn that
        delivers, spends ``max_hops`` or takes no hop is the last."""
        turns = []
        while True:
            before = list(walked.path)
            step = router.route(s, lat, lon, t, walked=walked)
            # The caller's prefix is read, never extended.
            assert walked.path == before
            turns.append((walked, step))
            if (step.delivered or step.hops == router.max_hops
                    or step.hops == walked.hops):
                return turns
            walked = step

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(PROPAGATORS)),
           seed=st.integers(0, 2**32 - 1),
           dead=st.integers(0, 40), torn=st.integers(0, 25),
           t=st.sampled_from(EPOCHS), cut=st.floats(0.0, 1.0))
    def test_turns_from_any_prefix_chain_to_the_same_route(
            self, name, seed, dead, torn, t, cut):
        """From the empty prefix, a drawn one or the whole path, the
        chain of turns lands on the from-scratch route bit for bit:
        path, verdict, delay and distance bits and ``deflected``."""
        topology = GridTopology(PROPAGATORS[name], [])
        total = topology.constellation.total_satellites
        rng = np.random.default_rng(seed)
        _fault_cocktail(topology, rng, dead, torn)
        router = GeospatialRouter(topology)
        packets = 12
        src = rng.integers(0, total, packets)
        lats = rng.uniform(-HALF_PI, HALF_PI, packets)
        lons = rng.uniform(-math.pi, math.pi, packets)
        for s, lat, lon in zip(src.tolist(), lats.tolist(), lons.tolist()):
            whole = router.route(s, lat, lon, t)
            for hops in sorted({0, int(cut * whole.hops), whole.hops}):
                walked = GeospatialRouter(topology, max_hops=hops).route(
                    s, lat, lon, t)
                assert walked.path == whole.path[:hops + 1]
                turns = self._turns(router, s, lat, lon, t, walked)
                for _, step in turns:
                    assert step.path == whole.path[:len(step.path)]
                assert _bits(turns[-1][1]) == _bits(whole)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(PROPAGATORS)),
           seed=st.integers(0, 2**32 - 1),
           dead=st.integers(0, 40), torn=st.integers(0, 25),
           t=st.sampled_from(EPOCHS))
    def test_each_turn_is_one_deflection_run(self, name, seed, dead, torn,
                                             t):
        """Every turn of a chain from the source ends with the verdict
        or where the frozen walk's next hop is the preferred one, live
        and unvisited; no node the turn passes after its first hop is
        such a node, so a turn's later hops all leave the preferred
        direction.  A turn cannot tell a drop after deflection hops
        from a hand-back: the next turn from it takes no hop."""
        topology = GridTopology(PROPAGATORS[name], [])
        total = topology.constellation.total_satellites
        rng = np.random.default_rng(seed)
        _fault_cocktail(topology, rng, dead, torn)
        router = GeospatialRouter(topology)
        oracle = _ParentWalk(topology)
        packets = 12
        src = rng.integers(0, total, packets)
        lats = rng.uniform(-HALF_PI, HALF_PI, packets)
        lons = rng.uniform(-math.pi, math.pi, packets)
        for s, lat, lon in zip(src.tolist(), lats.tolist(), lons.tolist()):
            whole = oracle.route(s, lat, lon, t)
            turns = self._turns(router, s, lat, lon, t,
                                RouteResult(False, [s]))
            for k, (walked, step) in enumerate(turns):
                assert step.hops >= walked.hops + (k < len(turns) - 1)
                for end in range(len(walked.path) + 1, len(step.path)):
                    cut = RouteResult(False, step.path[:end])
                    assert not _hands_back(oracle, cut, lat, lon, t)
                if k < len(turns) - 1 and not _hands_back(
                        oracle, step, lat, lon, t):
                    # A drop after deflection hops: undelivered, and the
                    # next, last turn takes no hop.
                    assert k == len(turns) - 2
                    assert _bits(turns[-1][1]) == _bits(step)
            assert _bits(turns[-1][1]) == _bits(whole)

    @pytest.mark.parametrize(
        "verdict", ["delivered", "degraded", "dropped", "max_hops"])
    def test_a_turn_from_a_verdict_takes_no_hop(self, verdict):
        """A turn whose prefix is a finished route returns that route
        bit for bit: a chain of turns ends on the turn that takes no
        hop, so every verdict must be a fixed point.  Degraded delivery
        needs a shell whose footprints leave gaps."""
        shell = "two-plane" if verdict == "degraded" else "starlink"
        topology = GridTopology(PROPAGATORS[shell], [])
        router = GeospatialRouter(topology)
        t = 0.0
        snap = router._snapshot(t)
        if verdict == "degraded":
            s, lat, lon = _degraded_boundary_packet(router, t, inside=True)
        elif verdict == "delivered":
            s = 3
            lat, lon = (float(x) for x in snap.subpoints[s])
        else:
            # A far destination: the other side of the globe.
            s = 3
            lat, lon = (float(x) for x in snap.subpoints[s])
            lat, lon = -lat, lon - math.pi
            if verdict == "dropped":
                wiring = grid_neighbor_table(topology.constellation)
                for column in range(4):
                    topology.fail_isl(s, int(wiring[s, column]))
            else:
                router = GeospatialRouter(topology, max_hops=5)
        whole = router.route(s, lat, lon, t)
        assert whole.delivered == (verdict in ("delivered", "degraded"))
        assert whole.degraded == (verdict == "degraded")
        assert whole.hops == {"delivered": 0, "degraded": 1, "dropped": 0,
                              "max_hops": 5}[verdict]
        turn = router.route(s, lat, lon, t, walked=whole)
        assert _bits(turn) == _bits(whole)

    def test_rejects_a_foreign_prefix(self):
        router = GeospatialRouter(GridTopology(PROPAGATORS["starlink"], []))
        whole = router.route(3, 0.3, 1.0, 0.0)
        assert whole.hops > 0
        for walked in (RouteResult(False, []),
                       RouteResult(False, [4] + whole.path[1:]),
                       RouteResult(False, [3] * (router.max_hops + 2))):
            with pytest.raises(ValueError, match="prefix of this route"):
                router.route(3, 0.3, 1.0, 0.0, walked=walked)


class TestSourceIngress:
    """One ``ValueError`` for a bad source on every routing entry point,
    raised before any routing, table build or counter."""

    @pytest.mark.parametrize("lane", LANES)
    @pytest.mark.parametrize("bad", [-1, -5, "N", "N+7", 2.5, True])
    def test_every_entry_point_rejects_a_bad_source(self, bad, lane):
        topology = GridTopology(PROPAGATORS["starlink"], [])
        total = topology.constellation.total_satellites
        bad = {"N": total, "N+7": total + 7}.get(bad, bad)
        metrics = MetricsRegistry()
        router = BatchGeoRouter(topology, metrics=metrics)
        calls = [
            lambda: router.scalar.route(bad, 0.3, 1.0, 0.0),
            lambda: router.route_batch([3, bad], [0.3, 0.3], [1.0, 1.0],
                                       0.0),
            lambda: router.route_sweep([3, bad], [0.3, 0.3], [1.0, 1.0],
                                       [0.0, 60.0]),
        ]
        with _lane(lane):
            for call in calls:
                with pytest.raises(ValueError,
                                   match="source satellite index out of "
                                         "range"):
                    call()
        assert not any(key.startswith("routing.")
                       for key in metrics.snapshot()["counters"])

    @pytest.mark.parametrize("lane", LANES)
    def test_numpy_integer_sources_are_accepted(self, lane):
        topology = GridTopology(PROPAGATORS["starlink"], [])
        router = BatchGeoRouter(topology)
        expected = router.scalar.route(3, 0.3, 1.0, 0.0)
        got = router.scalar.route(np.int64(3), 0.3, 1.0, 0.0)
        assert got == expected
        assert type(got.path[0]) is int
        with _lane(lane):
            batch = router.route_batch(np.array([3], dtype=np.int32),
                                       [0.3], [1.0], 0.0)
        assert batch.result(0) == expected
        assert len(router.route_batch([], [], [], 0.0)) == 0


@st.composite
def walker_shells(draw):
    """Generated Walker shells: 1-12 planes x 1-16 slots, delta or star
    spread, prograde to retrograde, any phasing factor."""
    return Constellation(
        name="generated",
        num_planes=draw(st.integers(1, 12)),
        sats_per_plane=draw(st.integers(1, 16)),
        altitude_km=draw(st.sampled_from([550.0, 780.0, 1200.0])),
        inclination_deg=draw(st.floats(30.0, 150.0)),
        raan_spread=draw(st.sampled_from([TWO_PI, math.pi])),
        phasing_factor=draw(st.integers(0, 3)))


def _torus_distance(c: Constellation, a: int, b: int) -> int:
    """+Grid Manhattan distance between two satellites on the torus."""
    (pa, sa), (pb, sb) = c.plane_slot(a), c.plane_slot(b)
    dp = abs(pa - pb)
    ds = abs(sa - sb)
    return (min(dp, c.num_planes - dp)
            + min(ds, c.sats_per_plane - ds))


class TestMetamorphicRelations:
    """Relations between the walk and the graph it walks, which need no
    oracle: every hop crosses one +Grid edge, so a delivered route is at
    least the torus Manhattan distance long, and the Dijkstra plane over
    the same live graph reaches the landing satellite no slower."""

    @pytest.mark.parametrize("lane", LANES)
    @settings(max_examples=30, deadline=None)
    @given(shell=st.one_of(st.sampled_from([starlink(), iridium()]),
                           walker_shells()),
           seed=st.integers(0, 2**32 - 1),
           dead=st.integers(0, 30), torn=st.integers(0, 30),
           t=st.sampled_from(EPOCHS))
    def test_delivered_routes_respect_the_grid(self, lane, shell, seed,
                                               dead, torn, t):
        topology = GridTopology(IdealPropagator(shell), [])
        rng = np.random.default_rng(seed)
        _fault_cocktail(topology, rng, dead, torn)
        live = sorted(set(range(shell.total_satellites))
                      - topology.failed_satellites())
        packets = 24
        src = rng.choice(live, packets)
        band = math.radians(min(shell.inclination_deg,
                                180.0 - shell.inclination_deg))
        lats = rng.uniform(-band, band, packets)
        lons = rng.uniform(-math.pi, math.pi, packets)
        with _lane(lane):
            batch = BatchGeoRouter(topology).route_batch(src, lats, lons, t)
        delivered = np.nonzero(batch.delivered)[0]
        landings = [batch.path(int(i))[-1] for i in delivered]
        baseline = DijkstraRouter(topology).route_many(
            [int(src[i]) for i in delivered], landings, t)
        for i, landing, best in zip(delivered, landings, baseline):
            hops = int(batch.hops[i])
            assert hops >= _torus_distance(shell, int(src[i]), landing)
            assert best.delivered
            assert best.delay_s <= float(batch.delay_s[i]) * (1 + 1e-12)
