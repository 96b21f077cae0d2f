"""Tests for the Walker constellation model (Table 1)."""

import math

import pytest

from repro.constants import TWO_PI
from repro.orbits import TABLE1, Constellation, by_name, starlink, oneweb
from repro.orbits import iridium, kuiper
from repro.orbits.snapshot import grid_neighbor_table


class TestTable1Presets:
    """The presets must match Table 1 of the paper."""

    @pytest.mark.parametrize(
        "name,n,m,total,alt,incl",
        [
            ("Starlink", 22, 72, 1584, 550, 53.0),
            ("OneWeb", 40, 18, 720, 1200, 87.9),
            ("Kuiper", 34, 34, 1156, 630, 51.9),
            ("Iridium", 11, 6, 66, 780, 86.4),
        ],
    )
    def test_parameters(self, name, n, m, total, alt, incl):
        c = by_name(name)
        assert c.sats_per_plane == n
        assert c.num_planes == m
        assert c.total_satellites == total
        assert c.altitude_km == alt
        assert c.inclination_deg == incl

    @pytest.mark.parametrize(
        "name,speed",
        [("Starlink", 7.6), ("OneWeb", 7.3), ("Kuiper", 7.5),
         ("Iridium", 7.4)],
    )
    def test_orbital_speed_matches_table1(self, name, speed):
        """Table 1 quotes the orbital speed of each shell."""
        assert by_name(name).speed_km_s == pytest.approx(speed, abs=0.08)

    def test_by_name_is_case_insensitive(self):
        assert by_name("starlink").name == "Starlink"
        assert by_name("IRIDIUM").name == "Iridium"

    def test_by_name_unknown_raises(self):
        with pytest.raises(KeyError):
            by_name("Telesat")

    def test_table1_registry_is_complete(self):
        assert set(TABLE1) == {"Starlink", "OneWeb", "Kuiper", "Iridium"}


class TestGeometry:
    def test_total_satellites(self):
        c = Constellation("t", 4, 3, 550.0, 53.0)
        assert c.total_satellites == 12

    def test_delta_raan_spans_spread(self):
        c = Constellation("t", 4, 8, 550.0, 53.0)
        assert c.delta_raan == pytest.approx(TWO_PI / 8)
        polar = Constellation("t", 4, 8, 550.0, 87.0, raan_spread=math.pi)
        assert polar.delta_raan == pytest.approx(math.pi / 8)

    def test_delta_phase(self):
        c = Constellation("t", 10, 3, 550.0, 53.0)
        assert c.delta_phase == pytest.approx(TWO_PI / 10)

    def test_period_above_earth(self):
        c = starlink()
        # LEO periods are between 90 and 130 minutes.
        assert 90 * 60 < c.period_s < 130 * 60
        assert oneweb().period_s > c.period_s  # higher orbit, longer period

    def test_raan_of_plane_uniform(self):
        c = Constellation("t", 4, 6, 550.0, 53.0)
        raans = [c.raan_of_plane(p) for p in range(6)]
        diffs = [raans[i + 1] - raans[i] for i in range(5)]
        for d in diffs:
            assert d == pytest.approx(c.delta_raan)

    def test_phase_includes_walker_offset(self):
        c = Constellation("t", 4, 6, 550.0, 53.0, phasing_factor=2)
        base = c.phase_of_slot(0, 0)
        shifted = c.phase_of_slot(1, 0)
        expected = TWO_PI * 2 * 1 / c.total_satellites
        assert (shifted - base) % TWO_PI == pytest.approx(expected)


class TestIndexing:
    def test_sat_index_roundtrip(self):
        c = Constellation("t", 7, 5, 550.0, 53.0)
        for plane in range(5):
            for slot in range(7):
                idx = c.sat_index(plane, slot)
                assert c.plane_slot(idx) == (plane, slot)

    def test_sat_index_wraps(self):
        c = Constellation("t", 7, 5, 550.0, 53.0)
        assert c.sat_index(5, 0) == c.sat_index(0, 0)
        assert c.sat_index(0, 7) == c.sat_index(0, 0)
        assert c.sat_index(-1, -1) == c.sat_index(4, 6)

    def test_neighbors_are_adjacent(self):
        c = Constellation("t", 7, 5, 550.0, 53.0)
        table = grid_neighbor_table(c)
        for index in range(c.total_satellites):
            plane, slot = c.plane_slot(index)
            up, down, left, right = table[index].tolist()
            assert up == c.sat_index(plane, slot + 1)
            assert down == c.sat_index(plane, slot - 1)
            assert left == c.sat_index(plane - 1, slot)
            assert right == c.sat_index(plane + 1, slot)

    def test_neighbors_wrap_at_seams(self):
        c = Constellation("t", 7, 5, 550.0, 53.0)
        table = grid_neighbor_table(c)
        up, down, _, _ = table[c.sat_index(0, 6)].tolist()
        assert up == c.sat_index(0, 0)
        assert down == c.sat_index(0, 5)
        _, _, left, right = table[c.sat_index(4, 0)].tolist()
        assert right == c.sat_index(0, 0)
        assert left == c.sat_index(3, 0)
        _, _, left, _ = table[c.sat_index(0, 2)].tolist()
        assert left == c.sat_index(4, 2)


class TestValidation:
    def test_rejects_zero_planes(self):
        with pytest.raises(ValueError):
            Constellation("t", 4, 0, 550.0, 53.0)

    def test_rejects_bad_inclination(self):
        with pytest.raises(ValueError):
            Constellation("t", 4, 4, 550.0, 0.0)
        with pytest.raises(ValueError):
            Constellation("t", 4, 4, 550.0, 190.0)

    def test_rejects_negative_altitude(self):
        with pytest.raises(ValueError):
            Constellation("t", 4, 4, -1.0, 53.0)

    def test_polar_presets_use_half_spread(self):
        assert oneweb().raan_spread == pytest.approx(math.pi)
        assert iridium().raan_spread == pytest.approx(math.pi)
        assert starlink().raan_spread == pytest.approx(TWO_PI)
        assert kuiper().raan_spread == pytest.approx(TWO_PI)
