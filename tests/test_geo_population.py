"""Tests for the global UE population model."""

import math

import pytest

from repro.geo import PopulationGrid, Region, WORLD_BANK_REGIONS


class TestRegion:
    def test_contains_inside(self):
        r = Region("box", 0, 10, 0, 10, 1.0)
        assert r.contains(math.radians(5), math.radians(5))
        assert not r.contains(math.radians(15), math.radians(5))

    def test_contains_antimeridian_box(self):
        r = Region("pacific", -10, 10, 170, -170, 1.0)
        assert r.contains(0.0, math.radians(175))
        assert r.contains(0.0, math.radians(-175))
        assert not r.contains(0.0, math.radians(0))

    def test_area_positive_and_reasonable(self):
        r = Region("box", 0, 10, 0, 10, 1.0)
        # 10x10 degrees near the equator is about 1.2M km^2.
        assert r.area_km2() == pytest.approx(1.23e6, rel=0.05)

    def test_antimeridian_area(self):
        r = Region("pacific", -10, 10, 170, -170, 1.0)
        straight = Region("s", -10, 10, 0, 20, 1.0)
        assert r.area_km2() == pytest.approx(straight.area_km2())

    def test_world_bank_weights_sum_to_one(self):
        assert sum(r.weight for r in WORLD_BANK_REGIONS) == pytest.approx(
            1.0, abs=0.01)


class TestPopulationGrid:
    def setup_method(self):
        self.grid = PopulationGrid()

    def test_rejects_empty_regions(self):
        with pytest.raises(ValueError):
            PopulationGrid(regions=[])

    def test_density_zero_over_ocean(self):
        assert self.grid.density_at(0.0, math.radians(-140.0)) == 0.0

    def test_density_positive_over_china(self):
        d = self.grid.density_at(math.radians(35.0), math.radians(110.0))
        assert d > 10.0  # subscribers per km^2

    def test_region_of(self):
        assert self.grid.region_of(math.radians(35.0),
                                   math.radians(110.0)) == "east-asia"
        assert self.grid.region_of(0.0, math.radians(-140.0)) == "ocean"

    def test_footprint_users_scale_with_radius(self):
        lat, lon = math.radians(30.0), math.radians(110.0)
        small = self.grid.users_in_footprint(lat, lon, 300.0)
        large = self.grid.users_in_footprint(lat, lon, 900.0)
        assert large > small > 0

    def test_footprint_over_ocean_empty(self):
        assert self.grid.users_in_footprint(0.0, math.radians(-140.0),
                                            500.0) == 0.0

    def test_capped_users_respects_capacity(self):
        lat, lon = math.radians(30.0), math.radians(110.0)
        served = self.grid.capped_users(lat, lon, 900.0, capacity=30000)
        assert served == 30000.0

    def test_capped_users_below_capacity_over_sparse_area(self):
        served = self.grid.capped_users(0.0, math.radians(-140.0), 500.0,
                                        capacity=30000)
        assert served == 0.0

    def test_total_mass_conserved(self):
        """Densities integrate back to the subscriber total."""
        total = sum(
            (r.weight / sum(x.weight for x in WORLD_BANK_REGIONS))
            * self.grid.total_subscribers
            for r in WORLD_BANK_REGIONS)
        assert total == pytest.approx(self.grid.total_subscribers, rel=1e-6)
