"""Tests for orbital edge computing and state footprints."""

import math

import pytest

from repro.core.edge import OrbitalEdgeService
from repro.experiments.state_footprint import (
    footprint_comparison,
    satellite_state_footprint,
)
from repro.baselines import ALL_SOLUTIONS, baoyun
from repro.baselines.base import StateResidency
from repro.orbits import IdealPropagator, default_ground_stations, starlink
from repro.topology import GridTopology

BEIJING = (math.radians(39.9), math.radians(116.4))


@pytest.fixture(scope="module")
def topology():
    return GridTopology(IdealPropagator(starlink()),
                        default_ground_stations())


@pytest.fixture(scope="module")
def edge(topology):
    service = OrbitalEdgeService(topology)
    service.place_over_population(0.0)
    return service


class TestPlacement:
    def test_places_requested_count(self, edge):
        assert len(edge._replicas) == 6

    def test_replicas_spread_apart(self, edge, topology):
        from repro.orbits.coordinates import central_angle
        subs = topology.propagator.subpoints(0.0)
        replicas = sorted(edge._replicas)
        for i, a in enumerate(replicas):
            for b in replicas[i + 1:]:
                angle = central_angle(float(subs[a][0]),
                                      float(subs[a][1]),
                                      float(subs[b][0]),
                                      float(subs[b][1]))
                assert angle * 6371.0 > 1500.0


class TestServing:
    def test_request_served_from_nearby_replica(self, edge):
        result = edge.serve(*BEIJING, 0.0)
        assert result.served
        assert result.replica_sat in edge._replicas
        # A replica over east Asia should be a short hop away.
        assert result.latency_s < 0.08

    def test_edge_beats_ground_cdn(self, edge):
        """S2.2(3): orbital edge shortens content paths."""
        result = edge.serve(*BEIJING, 0.0)
        cdn = edge.ground_cdn_latency_s(*BEIJING, 0.0)
        assert result.latency_s < cdn

    def test_failover_to_next_replica(self, topology):
        service = OrbitalEdgeService(topology)
        service.place_over_population(0.0)
        first = service.serve(*BEIJING, 0.0)
        assert first.served
        topology.fail_satellite(first.replica_sat)
        try:
            second = service.serve(*BEIJING, 0.0)
            assert second.served
            assert second.replica_sat != first.replica_sat
            assert service.failovers >= 1
        finally:
            topology.recover_satellite(first.replica_sat)

    def test_all_replicas_dead_fails_politely(self, topology):
        service = OrbitalEdgeService(topology)
        service._replicas = {0}
        topology.fail_satellite(0)
        try:
            assert not service.serve(*BEIJING, 0.0).served
        finally:
            topology.recover_satellite(0)


class TestStateFootprint:
    def test_skycore_footprint_enormous(self):
        footprints = {f.solution: f for f in footprint_comparison()}
        assert footprints["SkyCore"].stored_items == 100_000_000
        assert footprints["SkyCore"].stored_megabytes > 1000

    def test_spacecore_smallest_durable_class(self):
        footprints = {f.solution: f for f in footprint_comparison()}
        assert footprints["SpaceCore"].stored_items < \
            footprints["Baoyun"].stored_items
        assert footprints["SkyCore"].stored_bytes == max(
            f.stored_bytes for f in footprints.values())

    def test_footprint_scales_with_capacity(self):
        small = satellite_state_footprint(baoyun(), 2_000, 10**8)
        large = satellite_state_footprint(baoyun(), 30_000, 10**8)
        assert large.stored_bytes == pytest.approx(
            15 * small.stored_bytes)

    def test_durability_classes(self):
        """Only SpaceCore's on-board state evaporates on release."""
        residency = {factory().name: factory().state_residency
                     for factory in ALL_SOLUTIONS}
        assert residency["SpaceCore"] is StateResidency.NONE
        for name in ("SkyCore", "Baoyun", "DPCM", "5G NTN"):
            assert residency[name] is not StateResidency.NONE

    def test_measured_sizes_plausible(self):
        from repro.experiments.state_footprint import (
            _BUNDLE_BYTES,
            _VECTOR_BYTES,
        )
        assert 300 < _BUNDLE_BYTES < 2000
        assert 32 <= _VECTOR_BYTES <= 128
