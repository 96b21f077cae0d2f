"""Tests for orbit propagation, coverage, and ground stations."""

import math

import numpy as np
import pytest

from repro.constants import STARLINK_DWELL_S
from repro.orbits import (
    GroundStation,
    IdealPropagator,
    J4Propagator,
    by_name,
    default_ground_stations,
    make_propagator,
    mean_dwell_time_s,
    nearest_station,
    serving_satellite,
    snapshot_for,
    starlink,
)
from repro.orbits.coverage import (
    coverage_half_angle,
    footprint_area_km2,
    footprint_radius_km,
)
from repro.orbits.groundstations import station_load_shares


class TestIdealPropagator:
    def setup_method(self):
        self.c = starlink()
        self.prop = IdealPropagator(self.c)

    def test_radius_is_constant(self):
        for t in (0.0, 100.0, 5000.0):
            pos = self.prop.positions_ecef(t)
            radii = np.linalg.norm(pos, axis=1)
            assert np.allclose(radii, self.c.semi_major_axis_km)

    def test_period_returns_to_start(self):
        s0 = self.prop.state(3, 5, 0.0)
        s1 = self.prop.state(3, 5, self.c.period_s)
        assert s1.arg_latitude == pytest.approx(s0.arg_latitude, abs=1e-6)
        assert s1.raan == pytest.approx(s0.raan)  # no drift when ideal

    def test_all_states_matches_scalar_state(self):
        raan, u = self.prop.all_states(1234.0)
        for plane, slot in [(0, 0), (3, 7), (71, 21)]:
            idx = self.c.sat_index(plane, slot)
            st = self.prop.state(plane, slot, 1234.0)
            assert raan[idx] == pytest.approx(st.raan)
            assert u[idx] == pytest.approx(st.arg_latitude)

    def test_latitude_bounded_by_inclination(self):
        subs = self.prop.subpoints(777.0)
        assert np.max(np.abs(subs[:, 0])) <= self.c.inclination_rad + 1e-9

    def test_subpoint_moves(self):
        a = self.prop.state(0, 0, 0.0).subpoint()
        b = self.prop.state(0, 0, 60.0).subpoint()
        assert a != b

    def test_ecef_accounts_for_earth_rotation(self):
        # After one orbital period the ECEF position differs (Earth turned).
        p0 = self.prop.state(0, 0, 0.0).position_ecef()
        p1 = self.prop.state(0, 0, self.c.period_s).position_ecef()
        assert not np.allclose(p0, p1, atol=1.0)


class TestJ4Propagator:
    def setup_method(self):
        self.c = starlink()
        self.j4 = J4Propagator(self.c)

    def test_nodal_regression_westward(self):
        """Prograde orbits regress westward: negative RAAN rate."""
        assert self.j4.raan_rate() < 0

    def test_starlink_drift_magnitude(self):
        """Starlink's shell drifts about 4-5 deg/day."""
        deg_per_day = math.degrees(self.j4.raan_rate()) * 86400.0
        assert -6.0 < deg_per_day < -3.5

    def test_polar_orbit_drifts_slowly(self):
        polar = J4Propagator(by_name("OneWeb"))
        assert abs(polar.raan_rate()) < abs(self.j4.raan_rate())

    def test_draconitic_rate_close_to_keplerian(self):
        rel = abs(self.j4.arg_latitude_rate() - self.c.mean_motion)
        assert rel / self.c.mean_motion < 5e-3

    def test_diverges_from_ideal_over_time(self):
        ideal = IdealPropagator(self.c)
        t = 6 * 3600.0
        d_ideal = ideal.state(0, 0, t)
        d_j4 = self.j4.state(0, 0, t)
        assert d_ideal.raan != pytest.approx(d_j4.raan)

    def test_factory(self):
        assert isinstance(make_propagator(self.c, "ideal"), IdealPropagator)
        assert isinstance(make_propagator(self.c, "j4"), J4Propagator)
        with pytest.raises(ValueError):
            make_propagator(self.c, "sgp4")


class TestCoverage:
    def test_half_angle_grows_with_altitude(self):
        assert coverage_half_angle(1200, 25) > coverage_half_angle(550, 25)

    def test_half_angle_shrinks_with_elevation(self):
        assert coverage_half_angle(550, 40) < coverage_half_angle(550, 25)

    def test_footprint_radius_reasonable(self):
        # Starlink with a 25 degree mask serves a ~940 km radius.
        assert footprint_radius_km(550, 25) == pytest.approx(940, abs=30)

    def test_footprint_area_consistent_with_radius(self):
        r = footprint_radius_km(550, 25)
        area = footprint_area_km2(550, 25)
        flat = math.pi * r * r
        # The spherical cap is slightly smaller than the flat disc of
        # the same great-circle radius... no: slightly larger chord, the
        # cap area exceeds pi*r_chord^2 but is close to pi*(R*theta)^2.
        assert area == pytest.approx(flat, rel=0.05)

    def test_starlink_dwell_matches_paper(self):
        """S3.2: ~165.8 s transient coverage per Starlink satellite."""
        dwell = mean_dwell_time_s(starlink())
        assert dwell == pytest.approx(STARLINK_DWELL_S, rel=0.05)

    def test_visible_satellites_nonempty_midlatitude(self):
        prop = IdealPropagator(starlink())
        sats = snapshot_for(prop, 0.0).visible_satellites(
            math.radians(40), math.radians(-74))
        assert len(sats) >= 1

    def test_serving_satellite_is_visible(self):
        prop = IdealPropagator(starlink())
        lat, lon = math.radians(40), math.radians(-74)
        best = serving_satellite(prop, 0.0, lat, lon)
        assert best in snapshot_for(prop, 0.0).visible_satellites(lat, lon)

    def test_no_server_over_pole_for_inclined_shell(self):
        prop = IdealPropagator(starlink())
        assert serving_satellite(prop, 0.0, math.radians(89), 0.0) == -1


class TestGroundStations:
    def test_default_catalog_size(self):
        stations = default_ground_stations()
        assert len(stations) >= 20

    def test_truncation(self):
        assert len(default_ground_stations(5)) == 5
        with pytest.raises(ValueError):
            default_ground_stations(0)

    def test_nearest_station(self):
        stations = default_ground_stations()
        # A point in Tokyo bay should map to the Tokyo gateway.
        gs = nearest_station(math.radians(35.6), math.radians(139.8),
                             stations)
        assert gs.name == "tokyo-jp"

    @pytest.mark.parametrize("lat, lon", [
        pytest.param(math.nan, 0.0, id="nan-lat"),
        pytest.param(0.0, math.nan, id="nan-lon"),
        pytest.param(math.inf, 0.0, id="inf-lat"),
        pytest.param(0.0, -math.inf, id="inf-lon"),
        pytest.param(90.5, 0.0, id="past-north-pole"),
        pytest.param(-91.0, 0.0, id="past-south-pole")])
    def test_rejects_bad_coordinates(self, lat, lon):
        with pytest.raises(ValueError, match="finite degrees"):
            GroundStation("bad", lat, lon)

    def test_poles_and_any_finite_longitude_are_valid(self):
        assert GroundStation("north", 90.0, 0.0).lat == math.pi / 2
        assert GroundStation("south", -90.0, 540.0).lat == -math.pi / 2

    def test_nearest_station_empty_raises(self):
        with pytest.raises(ValueError):
            nearest_station(0.0, 0.0, [])

    def test_load_shares_sum_to_satellites(self):
        prop = IdealPropagator(starlink())
        subs = [tuple(row) for row in prop.subpoints(0.0)[:200]]
        stations = default_ground_stations()
        shares = station_load_shares(subs, stations)
        assert sum(shares) == 200

    def test_asymmetry_exists(self):
        """Fig 5a: some gateways serve far more satellites than others."""
        prop = IdealPropagator(starlink())
        subs = [tuple(row) for row in prop.subpoints(0.0)]
        shares = station_load_shares(subs, default_ground_stations())
        assert max(shares) > 2 * (sum(shares) / len(shares))
