"""Tests for sensitivity analysis and contact plans.

A contact plan is the schedule of which satellite serves a fixed
ground point (here a geospatial cell's centre): ``GridTopology``'s
live access satellite once satellites fail.
"""

import math

import pytest

from repro.experiments import (
    constellation_scaling,
    sensitivity_sweep,
    worst_case_reduction,
)
from repro.geo import GeospatialCellGrid
from repro.orbits import (
    IdealPropagator,
    default_ground_stations,
    serving_satellite,
    starlink,
)
from repro.orbits.snapshot import sample_times
from repro.topology import GridTopology


@pytest.fixture(scope="module")
def sensitivity_points():
    return sensitivity_sweep(starlink())


class TestSensitivity:
    def test_sweep_covers_three_parameters(self, sensitivity_points):
        assert {p.parameter for p in sensitivity_points} == {
            "mean_hops", "gateways", "capacity"}

    def test_conclusion_robust(self, sensitivity_points):
        """Across every perturbation SpaceCore keeps a large margin."""
        assert worst_case_reduction(sensitivity_points) > 5.0

    def test_more_hops_bigger_reduction(self, sensitivity_points):
        hops_points = sorted((p for p in sensitivity_points
                              if p.parameter == "mean_hops"),
                             key=lambda p: p.value)
        reductions = [p.reduction_vs_ntn for p in hops_points]
        assert reductions == sorted(reductions)

    def test_capacity_invariance(self, sensitivity_points):
        """Both loads scale linearly in capacity: the ratio holds."""
        values = [p.reduction_vs_ntn for p in sensitivity_points
                  if p.parameter == "capacity"]
        assert max(values) / min(values) < 1.5


class TestScaling:
    def test_denser_shells_bigger_win(self):
        points = constellation_scaling(sizes=((6, 11), (36, 20),
                                              (72, 22)))
        assert points[0].total_satellites < points[-1].total_satellites
        assert (points[-1].reduction_vs_ntn
                > points[0].reduction_vs_ntn)

    def test_all_sizes_favor_spacecore(self):
        points = constellation_scaling(sizes=((6, 11), (18, 20)))
        for point in points:
            assert point.reduction_vs_ntn > 2.0


@pytest.fixture(scope="module")
def topology():
    return GridTopology(IdealPropagator(starlink()),
                        default_ground_stations())


class TestContactPlans:
    def test_failed_satellite_leaves_gap(self, topology):
        grid = GeospatialCellGrid(topology.constellation)
        lat, lon = grid.cell_center(grid.cell_of(math.radians(39.9),
                                                 math.radians(116.4)))
        times = sample_times(0.0, 600.0, 30.0)
        victim = serving_satellite(topology.propagator, 0.0, lat, lon)
        local = GridTopology(topology.propagator, [])
        local.fail_satellite(victim)
        servers = {local.live_access_satellite(lat, lon, t)
                   for t in times}
        assert victim not in servers
        assert servers - {-1}, "the cell's other servers still cover it"
