"""Tests for traffic concentration and jamming."""

import math

import pytest

from repro.faults import JammingAttack
from repro.orbits import (
    IdealPropagator,
    default_ground_stations,
    serving_satellite,
    starlink,
)
from repro.topology import (
    GeospatialRouter,
    GridTopology,
    compare_concentration,
    gravity_demand,
    load_peer_to_peer,
    load_to_gateways,
)

BEIJING = (math.radians(39.9), math.radians(116.4))
NEW_YORK = (math.radians(40.7), math.radians(-74.0))


@pytest.fixture(scope="module")
def topology():
    return GridTopology(IdealPropagator(starlink()),
                        default_ground_stations())


class TestGravityDemand:
    def test_demand_positive_and_normalised(self, topology):
        demands = gravity_demand(topology, 0.0, top_satellites=10,
                                 total_demand=500.0)
        assert demands
        assert all(d > 0 for _, _, d in demands)
        assert sum(d for _, _, d in demands) == pytest.approx(500.0)

    def test_endpoints_are_distinct_satellites(self, topology):
        demands = gravity_demand(topology, 0.0, top_satellites=8)
        for a, b, _ in demands:
            assert a != b


class TestTrafficConcentration:
    def test_gateway_routing_concentrates(self, topology):
        demands = gravity_demand(topology, 0.0, top_satellites=10)
        load = load_to_gateways(topology, 0.0, demands)
        assert load.link_load
        assert load.peak_to_mean_link_ratio() > 1.2

    def test_peer_routing_delivers_everything(self, topology):
        demands = gravity_demand(topology, 0.0, top_satellites=10)
        load = load_peer_to_peer(topology, 0.0, demands)
        assert load.undelivered == 0.0

    def test_spacecore_removes_asymmetry(self, topology):
        """S3.1/S4.2: pushing the data plane to the edge de-funnels."""
        comparison = compare_concentration(topology,
                                           top_satellites=12)
        assert (comparison.peer_peak_to_mean
                < comparison.gateway_peak_to_mean)
        assert comparison.peer_gini < comparison.gateway_gini

    def test_gini_bounds(self, topology):
        demands = gravity_demand(topology, 0.0, top_satellites=8)
        load = load_peer_to_peer(topology, 0.0, demands)
        assert 0.0 <= load.gini_coefficient() <= 1.0


class TestJamming:
    def test_jammer_affects_overflying_satellites(self):
        topo = GridTopology(IdealPropagator(starlink()), [])
        jammer = JammingAttack(*BEIJING, radius_km=1500.0)
        affected = jammer.affected_satellites(topo, 0.0)
        assert 1 <= len(affected) < 100

    def test_jamming_blocks_then_recovers(self):
        topo = GridTopology(IdealPropagator(starlink()), [])
        jammer = JammingAttack(*BEIJING, radius_km=1200.0)
        victim = serving_satellite(topo.propagator, 0.0, *BEIJING)
        assert len(topo.isl_neighbors(victim)) == 4
        count = jammer.apply(topo, 0.0)
        assert count >= 1
        assert topo.isl_neighbors(victim) == []
        jammer.lift(topo, 0.0)
        assert len(topo.isl_neighbors(victim)) == 4

    def test_traffic_routes_around_jammed_region(self):
        """Stateless relaying deflects around the jammed hole."""
        topo = GridTopology(IdealPropagator(starlink()), [])
        router = GeospatialRouter(topo)
        src = serving_satellite(topo.propagator, 0.0, *BEIJING)
        before = router.route(src, *NEW_YORK, 0.0)
        assert before.delivered
        # Jam a region in the middle of the path (mid-Pacific arc).
        mid = before.path[len(before.path) // 2]
        mid_lat, mid_lon = topo.propagator.subpoints(0.0)[mid]
        jammer = JammingAttack(float(mid_lat), float(mid_lon),
                               radius_km=900.0)
        jammer.apply(topo, 0.0)
        # The source itself must not be jammed for this test.
        if src in jammer.affected_satellites(topo, 0.0):
            pytest.skip("jammer reached the source; geometry too tight")
        after = router.route(src, *NEW_YORK, 0.0)
        assert after.delivered
        assert after.hops >= before.hops  # detour, not collapse