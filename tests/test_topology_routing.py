"""Tests for the +Grid topology and Algorithm 1 geospatial routing."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.orbits import (
    GroundStation,
    IdealPropagator,
    J4Propagator,
    default_ground_stations,
    iridium,
    oneweb,
    serving_satellite,
    starlink,
)
from repro.orbits.constellation import Constellation
from repro.orbits.coverage import coverage_half_angle
from repro.orbits.snapshot import (
    ConstellationSnapshot,
    grid_neighbor_table,
    snapshot_for,
)
from repro.topology import (
    DijkstraRouter,
    GeospatialRouter,
    GridTopology,
    propagation_delay_s,
)

BEIJING = (math.radians(39.9), math.radians(116.4))
NEW_YORK = (math.radians(40.7), math.radians(-74.0))


@pytest.fixture(scope="module")
def topo():
    return GridTopology(IdealPropagator(starlink()),
                        default_ground_stations())


@pytest.fixture(scope="module")
def router(topo):
    return GeospatialRouter(topo)


class TestLinks:
    def test_propagation_delay(self):
        # 2998 km at light speed is about 10 ms.
        assert propagation_delay_s(2997.92458) == pytest.approx(0.01)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            propagation_delay_s(-1.0)


class TestGridTopology:
    def test_four_isl_neighbors(self, topo):
        assert len(topo.isl_neighbors(100)) == 4

    def test_neighbors_are_grid_adjacent(self, topo):
        c = topo.constellation
        plane, slot = c.plane_slot(500)
        nbrs = set(topo.isl_neighbors(500))
        assert c.sat_index(plane, slot + 1) in nbrs
        assert c.sat_index(plane + 1, slot) in nbrs

    def test_isl_distance_symmetric(self, topo):
        a, b = 100, topo.isl_neighbors(100)[0]
        assert topo.isl_distance_km(a, b, 0.0) == pytest.approx(
            topo.isl_distance_km(b, a, 0.0))

    @settings(max_examples=40, deadline=None)
    @given(planes=st.integers(1, 8), slots=st.integers(1, 10),
           star=st.booleans(), t=st.floats(0.0, 6000.0),
           sat=st.integers(0, 10**6), pick=st.integers(0, 10**6))
    @example(planes=2, slots=6, star=True, t=300.0, sat=7, pick=3)
    @example(planes=5, slots=2, star=False, t=300.0, sat=4, pick=1)
    def test_isl_distance_is_the_snapshot_hop_length(self, planes, slots,
                                                    star, t, sat, pick):
        """On drawn shells (2-plane and 2-slot wirings, which name an
        ISL twice, included) ``isl_distance_km`` is the snapshot's
        ``hop_lengths_km`` entry bit for bit in both directions, and a
        pair that is not a +Grid edge raises."""
        constellation = Constellation(
            name="drawn", num_planes=planes, sats_per_plane=slots,
            altitude_km=550.0, inclination_deg=53.0,
            raan_spread=math.pi if star else 2 * math.pi)
        topo = GridTopology(IdealPropagator(constellation), [])
        wiring = grid_neighbor_table(constellation)
        hop_km = snapshot_for(topo.propagator, t).hop_lengths_km()
        total = constellation.total_satellites
        a = sat % total
        for column in range(4):
            b = int(wiring[a, column])
            assert topo.isl_distance_km(a, b, t).hex() == \
                float(hop_km[a, column]).hex()
            assert topo.isl_distance_km(b, a, t).hex() == \
                float(hop_km[a, column]).hex()
        strangers = [s for s in range(total) if s not in wiring[a]]
        if strangers:
            with pytest.raises(ValueError, match="not \\+Grid neighbours"):
                topo.isl_distance_km(a, strangers[pick % len(strangers)],
                                     t)

    def test_intra_plane_spacing_constant(self, topo):
        c = topo.constellation
        plane, slot = c.plane_slot(300)
        up = c.sat_index(plane, slot + 1)
        d0 = topo.isl_distance_km(300, up, 0.0)
        d1 = topo.isl_distance_km(300, up, 500.0)
        assert d0 == pytest.approx(d1, rel=1e-6)

    def test_failed_satellite_removed(self):
        topo = GridTopology(IdealPropagator(starlink()), [])
        topo.fail_satellite(100)
        assert not topo.is_up(100)
        for nbr_list_owner in topo.isl_neighbors(101), topo.isl_neighbors(99):
            assert 100 not in nbr_list_owner
        topo.recover_satellite(100)
        assert topo.is_up(100)

    def test_failed_isl_removed(self):
        topo = GridTopology(IdealPropagator(starlink()), [])
        nbr = topo.isl_neighbors(50)[0]
        topo.fail_isl(50, nbr)
        assert nbr not in topo.isl_neighbors(50)
        assert 50 not in topo.isl_neighbors(nbr)
        topo.recover_isl(50, nbr)
        assert nbr in topo.isl_neighbors(50)

    @pytest.mark.parametrize("method", [
        "fail_satellite", "recover_satellite", "fail_isl", "recover_isl",
        "is_up", "isl_up", "isl_marked_failed", "grid_neighbors",
        "isl_neighbors", "directional_neighbors"])
    @pytest.mark.parametrize("bad", [-1, "N", 2.5, True])
    def test_fault_ingress_refuses_non_index(self, method, bad):
        """-1 must not wrap to satellite N - 1 on the array planes, N
        must not surface later as an IndexError, and a float or bool
        is not a satellite index.  Reads take the same contract as
        writes, so ``is_up(-1)`` never answers for satellite N - 1."""
        topo = GridTopology(IdealPropagator(starlink()), [])
        total = topo.constellation.total_satellites
        sat = total if bad == "N" else bad
        pair = {"fail_isl", "recover_isl", "isl_up", "isl_marked_failed"}
        args = (0, sat) if method in pair else (sat,)
        with pytest.raises(ValueError):
            getattr(topo, method)(*args)
        assert topo.fault_epoch == 0
        assert topo.satellite_liveness().all()
        assert topo.edge_liveness().all()

    def test_fault_ingress_accepts_numpy_index(self):
        topo = GridTopology(IdealPropagator(starlink()), [])
        topo.fail_satellite(np.int64(7))
        assert topo.failed_satellites() == {7}
        assert not topo.satellite_liveness()[7]

    def test_station_access_satellite(self, topo):
        gs = topo.ground_stations[0]
        sat = topo.station_access_satellite(gs, 0.0)
        assert sat >= 0

    def test_snapshot_graph_connected(self, topo):
        import networkx as nx
        graph = topo.snapshot_graph(0.0, include_ground=False)
        assert graph.number_of_nodes() == 1584
        assert graph.number_of_edges() == 2 * 1584  # 4 ISLs each, halved
        assert nx.is_connected(graph)

    def test_snapshot_graph_includes_ground(self, topo):
        graph = topo.snapshot_graph(0.0, include_ground=True)
        names = {gs.name for gs in topo.ground_stations}
        present = names.intersection(graph.nodes)
        assert len(present) > len(names) * 0.6

    def test_gsl_delay_positive(self, topo):
        gs = topo.ground_stations[0]
        sat = topo.station_access_satellite(gs, 0.0)
        assert topo.gsl_delay_s(sat, gs, 0.0) > 0


class TestAlgorithm1:
    def test_beijing_to_new_york_delivers(self, router, topo):
        src = serving_satellite(topo.propagator, 0.0, *BEIJING)
        result = router.route(src, *NEW_YORK, 0.0)
        assert result.delivered
        # One-way delay between Beijing and New York over LEO ISLs is
        # a few tens of milliseconds (Fig. 18b plots 40-110 ms).
        assert 0.025 < result.delay_s < 0.150
        assert result.hops >= 10

    def test_delivery_to_local_destination_is_zero_hop(self, router, topo):
        src = serving_satellite(topo.propagator, 0.0, *BEIJING)
        near = (BEIJING[0] + 0.001, BEIJING[1] + 0.001)
        result = router.route(src, *near, 0.0)
        assert result.delivered
        assert result.hops == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_pairs_always_deliver(self, router, topo, seed):
        """Fig. 18b: 'Algorithm 1 guarantees traffic delivery'."""
        rng = random.Random(seed)
        for _ in range(25):
            lat1 = math.radians(rng.uniform(-50, 50))
            lon1 = math.radians(rng.uniform(-180, 180))
            lat2 = math.radians(rng.uniform(-50, 50))
            lon2 = math.radians(rng.uniform(-180, 180))
            src = serving_satellite(topo.propagator, 0.0, lat1, lon1)
            if src < 0:
                continue
            assert router.route(src, lat2, lon2, 0.0).delivered

    def test_delivery_at_later_times(self, router, topo):
        for t in (0.0, 900.0, 3600.0, 7200.0):
            src = serving_satellite(topo.propagator, t, *BEIJING)
            assert router.route(src, *NEW_YORK, t).delivered

    def test_stretch_vs_dijkstra_small(self, router, topo):
        """Stateless routing pays only a small detour over optimal."""
        src = serving_satellite(topo.propagator, 0.0, *BEIJING)
        dst = serving_satellite(topo.propagator, 0.0, *NEW_YORK)
        geo = router.route(src, *NEW_YORK, 0.0)
        base = DijkstraRouter(topo).route(src, dst, 0.0)
        assert base.delivered
        assert geo.delay_s < 1.6 * base.delay_s

    def test_j4_orbits_still_deliver(self):
        """Fig. 18b: runtime coordinates self-calibrate perturbations."""
        topo = GridTopology(J4Propagator(starlink()), [])
        router = GeospatialRouter(topo)
        for t in (0.0, 3 * 3600.0, 12 * 3600.0):
            src = serving_satellite(topo.propagator, t, *BEIJING)
            result = router.route(src, *NEW_YORK, t)
            assert result.delivered
            assert result.delay_s < 0.2

    def test_ideal_vs_j4_delay_similar(self):
        """Fig. 18b: path delays similar under ideal and J4 orbits."""
        t = 4 * 3600.0
        delays = {}
        for kind, prop in (("ideal", IdealPropagator(starlink())),
                           ("j4", J4Propagator(starlink()))):
            topo = GridTopology(prop, [])
            router = GeospatialRouter(topo)
            src = serving_satellite(prop, t, *BEIJING)
            delays[kind] = router.route(src, *NEW_YORK, t).delay_s
        assert delays["j4"] == pytest.approx(delays["ideal"], abs=0.030)

    def test_routes_around_failed_satellite(self, topo):
        """Deflection keeps delivering when a transit satellite dies."""
        local = GridTopology(IdealPropagator(starlink()), [])
        router = GeospatialRouter(local)
        src = serving_satellite(local.propagator, 0.0, *BEIJING)
        healthy = router.route(src, *NEW_YORK, 0.0)
        assert healthy.delivered and healthy.hops > 2
        # Kill a mid-path satellite.
        victim = healthy.path[len(healthy.path) // 2]
        local.fail_satellite(victim)
        rerouted = router.route(src, *NEW_YORK, 0.0)
        assert rerouted.delivered
        assert victim not in rerouted.path

    def test_hops_property(self, router, topo):
        src = serving_satellite(topo.propagator, 0.0, *BEIJING)
        result = router.route(src, *NEW_YORK, 0.0)
        assert result.hops == len(result.path) - 1


class TestStarConstellations:
    @pytest.mark.parametrize("factory", [oneweb, iridium])
    def test_polar_shells_deliver(self, factory):
        c = factory()
        topo = GridTopology(IdealPropagator(c), [])
        router = GeospatialRouter(topo, max_hops=512)
        rng = random.Random(9)
        delivered = 0
        attempts = 0
        for _ in range(20):
            lat1 = math.radians(rng.uniform(-60, 60))
            lon1 = math.radians(rng.uniform(-180, 180))
            lat2 = math.radians(rng.uniform(-60, 60))
            lon2 = math.radians(rng.uniform(-180, 180))
            src = serving_satellite(topo.propagator, 0.0, lat1, lon1)
            if src < 0:
                continue
            attempts += 1
            delivered += router.route(src, lat2, lon2, 0.0).delivered
        assert attempts > 0
        # Star constellations have the counter-rotating seam; the paper
        # itself reports occasional Iridium detours.  Require a high
        # delivery rate rather than perfection.
        assert delivered / attempts >= 0.9


def _scan_access(topology, lat, lon, t):
    """The gateway access pick the masked ``argmin`` replaced: sort
    every angle, scan to the first live satellite inside the footprint.
    (The old ``np.argsort`` was the unstable default; the stable sort is
    the tie rule ``live_access_satellite`` documents.)"""
    c = topology.constellation
    theta = coverage_half_angle(c.altitude_km, c.min_elevation_deg)
    ang = snapshot_for(topology.propagator, t).central_angles(lat, lon)
    for idx in np.argsort(ang, kind="stable"):
        sat = int(idx)
        if ang[idx] > theta:
            break
        if topology.is_up(sat):
            return sat
    return -1


def _candidate_access(topology, lat, lon, t):
    """``SpaceCoreSystem``'s old UE pick: visible set, then a stable
    sort of the candidates' angles, first live one."""
    snap = snapshot_for(topology.propagator, t)
    candidates = snap.visible_satellites(lat, lon)
    if len(candidates) == 0:
        return -1
    angles = snap.central_angles(lat, lon)[candidates]
    for idx in angles.argsort(kind="stable"):
        sat = int(candidates[idx])
        if topology.is_up(sat):
            return sat
    return -1


ACCESS_PROPAGATORS = {"starlink": IdealPropagator(starlink()),
                      "iridium": IdealPropagator(iridium())}


class TestAccessSatellite:
    """Gateway and UE access as one masked ``argmin``, against the scans
    it replaced, on generated stations x epochs x failed satellites."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(ACCESS_PROPAGATORS)),
           lat_deg=st.floats(-90.0, 90.0), lon_deg=st.floats(-180.0, 180.0),
           t=st.sampled_from([0.0, 615.0, 2871.5]),
           nearest_dead=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1), random_dead=st.integers(0, 60))
    def test_masked_argmin_matches_the_scans(self, name, lat_deg, lon_deg,
                                             t, nearest_dead, seed,
                                             random_dead):
        topology = GridTopology(ACCESS_PROPAGATORS[name], [])
        station = GroundStation("probe", lat_deg, lon_deg)
        ang = snapshot_for(topology.propagator, t).central_angles(
            station.lat, station.lon)
        # Kill the closest satellites so the pick must skip the dead.
        for sat in np.argsort(ang, kind="stable")[:nearest_dead]:
            topology.fail_satellite(int(sat))
        rng = np.random.default_rng(seed)
        for sat in rng.choice(len(ang), random_dead, replace=False):
            topology.fail_satellite(int(sat))
        expected = _scan_access(topology, station.lat, station.lon, t)
        assert topology.station_access_satellite(station, t) == expected
        assert topology.live_access_satellite(
            station.lat, station.lon, t) == expected
        assert _candidate_access(topology, station.lat, station.lon,
                                 t) == expected

    def test_ties_go_to_the_lowest_live_index(self, monkeypatch):
        topology = GridTopology(ACCESS_PROPAGATORS["iridium"], [])
        ang = np.ones(topology.constellation.total_satellites)
        ang[[9, 3, 5]] = 0.01
        monkeypatch.setattr(ConstellationSnapshot, "central_angles",
                            lambda self, lat, lon: ang.copy())
        assert topology.live_access_satellite(0.0, 0.0, 0.0) == 3
        topology.fail_satellite(3)
        assert topology.live_access_satellite(0.0, 0.0, 0.0) == 5
        assert _scan_access(topology, 0.0, 0.0, 0.0) == 5
        for sat in (5, 9):
            topology.fail_satellite(sat)
        assert topology.live_access_satellite(0.0, 0.0, 0.0) == -1
