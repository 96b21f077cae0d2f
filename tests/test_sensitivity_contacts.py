"""Tests for sensitivity analysis and contact plans.

A contact plan is the schedule of which satellite serves a fixed
ground point (a gateway, or a geospatial cell's centre) when:
``pass_schedule`` for the healthy shell, ``GridTopology``'s live
access satellite once satellites fail.
"""

import pytest

from repro.experiments import (
    by_parameter,
    constellation_scaling,
    sensitivity_sweep,
    worst_case_reduction,
)
from repro.geo import GeospatialCellGrid
from repro.orbits import (
    IdealPropagator,
    default_ground_stations,
    mean_dwell_time_s,
    starlink,
)
from repro.orbits.coverage import pass_schedule
from repro.orbits.snapshot import sample_times
from repro.topology import GridTopology


@pytest.fixture(scope="module")
def sensitivity_points():
    return sensitivity_sweep(starlink())


class TestSensitivity:
    def test_sweep_covers_three_parameters(self, sensitivity_points):
        grouped = by_parameter(sensitivity_points)
        assert set(grouped) == {"mean_hops", "gateways", "capacity"}

    def test_conclusion_robust(self, sensitivity_points):
        """Across every perturbation SpaceCore keeps a large margin."""
        assert worst_case_reduction(sensitivity_points) > 5.0

    def test_more_hops_bigger_reduction(self, sensitivity_points):
        hops_points = sorted(by_parameter(sensitivity_points)
                             ["mean_hops"], key=lambda p: p.value)
        reductions = [p.reduction_vs_ntn for p in hops_points]
        assert reductions == sorted(reductions)

    def test_capacity_invariance(self, sensitivity_points):
        """Both loads scale linearly in capacity: the ratio holds."""
        cap_points = by_parameter(sensitivity_points)["capacity"]
        values = [p.reduction_vs_ntn for p in cap_points]
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


def _covered_fraction(plan, t_start, t_end):
    return sum(end - start for start, end, _ in plan) / (t_end - t_start)


class TestContactPlans:
    def test_gateway_plan_structure(self, topology):
        station = topology.ground_stations[0]
        plan = pass_schedule(topology.propagator, station.lat,
                             station.lon, 0.0, 1800.0, step_s=30.0)
        assert plan, "a mid-latitude gateway is never uncovered"
        for start, end, sat in plan:
            assert end > start
            assert 0 <= sat < 1584
        # Contacts are time-ordered and non-overlapping.
        for (_, a_end, _), (b_start, _, _) in zip(plan, plan[1:]):
            assert a_end <= b_start

    def test_gateway_hands_over_repeatedly(self, topology):
        """The Fig. 11 effect seen from the ground: servers rotate."""
        station = topology.ground_stations[0]
        plan = pass_schedule(topology.propagator, station.lat,
                             station.lon, 0.0, 1800.0, step_s=30.0)
        assert len(plan) >= 3
        assert len({sat for _, _, sat in plan}) >= 3
        assert _covered_fraction(plan, 0.0, 1800.0) > 0.95

    def test_contact_durations_bounded_by_dwell(self, topology):
        """Closest-server contacts are shorter than the full pass:
        with Starlink's dense multi-coverage a *different* satellite
        becomes closest well before the current one sets."""
        station = topology.ground_stations[0]
        plan = pass_schedule(topology.propagator, station.lat,
                             station.lon, 0.0, 3600.0, step_s=15.0)
        mean_duration = sum(end - start for start, end, _ in plan) \
            / len(plan)
        dwell = mean_dwell_time_s(topology.constellation)
        assert 15.0 < mean_duration <= dwell * 1.2

    def test_cell_plan_rotates_servers(self, topology):
        """The cell is fixed; the satellite covering it changes."""
        grid = GeospatialCellGrid(topology.constellation)
        lat, lon = grid.cell_center(grid.cell_of_degrees(39.9, 116.4))
        plan = pass_schedule(topology.propagator, lat, lon, 0.0, 1200.0,
                             step_s=30.0)
        assert len({sat for _, _, sat in plan}) >= 2
        assert _covered_fraction(plan, 0.0, 1200.0) > 0.9

    def test_failed_satellite_leaves_gap(self, topology):
        grid = GeospatialCellGrid(topology.constellation)
        lat, lon = grid.cell_center(grid.cell_of_degrees(39.9, 116.4))
        times = sample_times(0.0, 600.0, 30.0)
        victim = pass_schedule(topology.propagator, lat, lon, 0.0, 600.0,
                               step_s=30.0)[0][2]
        local = GridTopology(topology.propagator, [])
        local.fail_satellite(victim)
        servers = {local.live_access_satellite(lat, lon, t)
                   for t in times}
        assert victim not in servers
        assert servers - {-1}, "the cell's other servers still cover it"
