"""Tests for the geospatial cell grid (S4.1 Step 1, Table 3)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import EARTH_RADIUS_KM
from repro.geo import GeospatialCellGrid
from repro.orbits import iridium, kuiper, oneweb, starlink


@pytest.fixture(scope="module")
def grid():
    return GeospatialCellGrid(starlink())


class TestGridShape:
    def test_dimensions_match_constellation(self, grid):
        assert grid.num_columns == 72
        assert grid.num_rows == 22
        assert grid.num_cells == 1584

class TestPointAssignment:
    def test_assignment_is_deterministic(self, grid):
        a = grid.cell_of(math.radians(39.9), math.radians(116.4))
        b = grid.cell_of(math.radians(39.9), math.radians(116.4))
        assert a == b

    def test_nearby_points_often_share_cells(self, grid):
        # Cells are hundreds of km wide: points 10 km apart are almost
        # always in the same cell.
        same = 0
        for k in range(50):
            lat = -50 + 2 * k
            a = grid.cell_of(math.radians(lat), math.radians(30.0))
            b = grid.cell_of(math.radians(lat + 0.05), math.radians(30.0))
            same += a == b
        assert same >= 45

    def test_antipodal_points_differ(self, grid):
        assert (grid.cell_of(math.radians(40.0), math.radians(116.0))
                != grid.cell_of(math.radians(-40.0), math.radians(-64.0)))

    @given(
        st.floats(min_value=-math.radians(80), max_value=math.radians(80)),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=150)
    def test_every_point_gets_a_valid_cell(self, lat, lon):
        grid = GeospatialCellGrid(starlink())
        col, row = grid.cell_of(lat, lon)
        assert 0 <= col < grid.num_columns
        assert 0 <= row < grid.num_rows

    @given(
        st.floats(min_value=-math.radians(85), max_value=math.radians(85)),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=100)
    def test_star_constellation_assignment_valid(self, lat, lon):
        grid = GeospatialCellGrid(oneweb())
        col, row = grid.cell_of(lat, lon)
        assert 0 <= col < grid.num_columns
        assert 0 <= row < grid.num_rows

    def test_cell_center_maps_back_to_its_cell(self, grid):
        """Ascending-range grid nodes are the seeds of their own cells.

        Rows whose gamma falls on the descending half of the orbit are
        aliases: their ground projections canonically belong to an
        ascending-row cell, so only ascending rows are checked.
        """
        ascending_rows = [r for r in range(grid.num_rows)
                          if (r * grid.delta_gamma <= math.pi / 2 - 0.05
                              or r * grid.delta_gamma
                              >= 3 * math.pi / 2 + 0.05)]
        cells = [(c, r) for c in range(0, 72, 9) for r in ascending_rows]
        hits = sum(grid.cell_of(*grid.cell_center(cell)) == cell
                   for cell in cells)
        assert hits >= int(0.9 * len(cells))

    def test_static_point_cell_never_changes(self, grid):
        """The defining property: cells are frozen at t=0 (S4.1)."""
        cell = grid.cell_of(math.radians(48.8), math.radians(2.3))
        for _ in range(10):
            assert grid.cell_of(math.radians(48.8), math.radians(2.3)) == cell


class TestCellAreas:
    def test_analytic_area_positive(self, grid):
        assert grid.analytic_cell_area_km2((0, 0)) > 0

    def test_analytic_area_peaks_at_equator_row(self, grid):
        areas = [grid.analytic_cell_area_km2((0, r)) for r in range(22)]
        assert areas[0] == max(areas)

    def test_analytic_area_scales_with_cos_gamma(self, grid):
        """``dA = R^2 sin(i) |cos gamma| dalpha dgamma`` row by row."""
        equator = grid.analytic_cell_area_km2((0, 0))
        for row in range(grid.num_rows):
            gamma = row * grid.delta_gamma
            assert grid.analytic_cell_area_km2((0, row)) / equator \
                == pytest.approx(abs(math.cos(gamma)))

    def test_analytic_areas_cover_the_band_twice(self, grid):
        """One ring of cells spans the whole (alpha, gamma) torus, which
        maps onto the inclination band once per branch (ascending and
        descending), so the areas sum to twice ``4 pi R^2 sin(i)``."""
        ring = round(2 * math.pi / grid.delta_alpha)
        total = ring * sum(grid.analytic_cell_area_km2((0, row))
                           for row in range(grid.num_rows))
        band = (4 * math.pi * EARTH_RADIUS_KM ** 2
                * math.sin(math.radians(starlink().inclination_deg)))
        assert total == pytest.approx(2 * band, rel=1e-2)

    @pytest.mark.parametrize("factory,lo,hi", [
        (starlink, 1e5, 1e6),
        (kuiper, 1e5, 1e6),
        (oneweb, 5e5, 5e6),
    ])
    def test_table3_average_cell_size_band(self, factory, lo, hi):
        """Table 3: average cells of 1e5-1e6 km^2 class."""
        stats = GeospatialCellGrid(factory()).cell_size_statistics(
            samples=8000)
        assert lo < stats.avg_km2 < hi

    def test_table3_spread(self, grid):
        """Table 3 shows >10x spread between min and max cell size."""
        stats = grid.cell_size_statistics(samples=15000)
        assert stats.max_km2 / stats.min_km2 > 5.0

    def test_statistics_deterministic_for_seed(self, grid):
        a = grid.cell_size_statistics(samples=2000)
        b = grid.cell_size_statistics(samples=2000)
        assert a == b

    def test_ascending_half_of_cells_nonempty(self, grid):
        """Canonical (ascending-branch) tiling uses about half the torus.

        For a full-spread Walker constellation the descending rows are
        aliases, so the non-empty cell count sits between 50% and 70%
        of the grid (boundary rows catch both branches).
        """
        stats = grid.cell_size_statistics(samples=30000)
        assert 0.45 * grid.num_cells < stats.num_cells < 0.75 * grid.num_cells


class TestCrossingRate:
    def test_pedestrian_crossings_are_rare(self, grid):
        """A walking UE crosses cells less than once per day."""
        rate = grid.crossing_rate_per_user(speed_km_s=1.5e-3)  # 1.5 m/s
        assert rate < 1.0 / 86400 * 10  # well under 10/day

    def test_faster_ue_crosses_more(self, grid):
        assert (grid.crossing_rate_per_user(0.03)
                > grid.crossing_rate_per_user(0.001))

    def test_iridium_cells_smaller_higher_rate(self):
        rate_small = GeospatialCellGrid(iridium()).crossing_rate_per_user(0.01)
        rate_big = GeospatialCellGrid(starlink()).crossing_rate_per_user(0.01)
        # Iridium has 66 huge cells vs Starlink's 1584 -> lower rate.
        assert rate_small < rate_big
