"""Tests for coordinate transforms and the (alpha, gamma) system."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import EARTH_RADIUS_KM, HALF_PI, TWO_PI
from repro.orbits.coordinates import (
    InclinedCoordinateSystem,
    central_angle,
    ecef_to_geodetic,
    eci_to_ecef,
    geodetic_to_ecef,
    orbital_to_eci,
    wrap_angle,
    wrap_signed,
)

LAT_BAND = math.radians(52.0)


class TestAngleWrapping:
    def test_wrap_angle_range(self):
        assert wrap_angle(TWO_PI + 0.5) == pytest.approx(0.5)
        assert wrap_angle(-0.5) == pytest.approx(TWO_PI - 0.5)

    def test_wrap_signed_range(self):
        assert wrap_signed(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
        assert wrap_signed(-math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
        assert wrap_signed(0.3) == pytest.approx(0.3)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_wrap_signed_is_shortest(self, angle):
        w = wrap_signed(angle)
        assert -math.pi < w <= math.pi + 1e-12
        # Same direction modulo 2*pi.
        assert math.isclose(math.cos(w), math.cos(angle), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(angle), abs_tol=1e-9)


class TestFrames:
    def test_frames_aligned_at_epoch(self):
        p = (1000.0, 2000.0, 3000.0)
        assert eci_to_ecef(p, 0.0) == pytest.approx(p)

    def test_orbital_to_eci_equator_start(self):
        # u=0, raan=0 puts the satellite on the +x axis.
        p = orbital_to_eci(0.0, math.radians(53), 0.0, 7000.0)
        assert p == pytest.approx((7000.0, 0.0, 0.0))

    def test_orbital_to_eci_peak_latitude(self):
        # u=pi/2 puts the satellite at its highest latitude.
        i = math.radians(53)
        p = orbital_to_eci(0.0, i, math.pi / 2, 7000.0)
        lat, _ = ecef_to_geodetic(p)
        assert lat == pytest.approx(i)

    def test_geodetic_roundtrip(self):
        lat, lon = math.radians(35.7), math.radians(139.7)
        p = geodetic_to_ecef(lat, lon, EARTH_RADIUS_KM)
        lat2, lon2 = ecef_to_geodetic(p)
        assert lat2 == pytest.approx(lat)
        assert lon2 == pytest.approx(lon)

    def test_great_circle_known_distance(self):
        # Pole to equator is a quarter circumference.
        d = central_angle(math.pi / 2, 0.0, 0.0, 0.0) * EARTH_RADIUS_KM
        assert d == pytest.approx(math.pi / 2 * EARTH_RADIUS_KM)

    def test_central_angle_symmetry(self):
        a = central_angle(0.3, 0.4, -0.2, 2.0)
        b = central_angle(-0.2, 2.0, 0.3, 0.4)
        assert a == pytest.approx(b)


def _two_conversions(system, lat, lon):
    """``both_representations`` as it read with a separate
    ``descending_representation``: ``from_geodetic`` twice, then the
    descending branch from the second ``gamma``."""
    _, gamma_asc = system.from_geodetic(lat, lon)
    gamma = math.pi - gamma_asc
    dlon = math.atan2(system._cos_i * math.sin(gamma), math.cos(gamma))
    alpha = wrap_angle(lon - dlon)
    return [system.from_geodetic(lat, lon), (alpha, gamma)]


def _rep_bits(reps):
    return [tuple(value.hex() for value in rep) for rep in reps]


class TestInclinedSystem:
    def setup_method(self):
        self.system = InclinedCoordinateSystem(math.radians(53.0))

    def test_rejects_bad_inclination(self):
        with pytest.raises(ValueError):
            InclinedCoordinateSystem(0.0)

    def test_equator_point_maps_to_zero_gamma(self):
        alpha, gamma = self.system.from_geodetic(0.0, 0.5)
        assert gamma == pytest.approx(0.0)
        assert alpha == pytest.approx(0.5)

    def test_roundtrip_inside_band(self):
        for lat_deg in (-50, -30, 0, 20, 45, 52):
            for lon_deg in (-170, -60, 0, 90, 179):
                lat, lon = math.radians(lat_deg), math.radians(lon_deg)
                alpha, gamma = self.system.from_geodetic(lat, lon)
                lat2, lon2 = self.system.to_geodetic(alpha, gamma)
                assert lat2 == pytest.approx(lat, abs=1e-9)
                assert wrap_signed(lon2 - lon) == pytest.approx(0.0, abs=1e-9)

    @given(
        st.floats(min_value=-LAT_BAND, max_value=LAT_BAND),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=200)
    def test_roundtrip_property(self, lat, lon):
        alpha, gamma = self.system.from_geodetic(lat, lon)
        assert 0.0 <= alpha < TWO_PI
        assert -math.pi / 2 <= gamma <= math.pi / 2
        lat2, lon2 = self.system.to_geodetic(alpha, gamma)
        assert math.isclose(lat2, lat, abs_tol=1e-9)
        assert math.isclose(wrap_signed(lon2 - lon), 0.0, abs_tol=1e-9)

    @given(
        st.floats(min_value=-LAT_BAND, max_value=LAT_BAND),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=200)
    def test_descending_branch_also_roundtrips(self, lat, lon):
        alpha, gamma = self.system.both_representations(lat, lon)[1]
        assert math.pi / 2 <= gamma <= 3 * math.pi / 2 + 1e-12
        lat2, lon2 = self.system.to_geodetic(alpha, gamma)
        assert math.isclose(lat2, lat, abs_tol=1e-9)
        assert math.isclose(wrap_signed(lon2 - lon), 0.0, abs_tol=1e-9)

    def test_latitude_beyond_band_clamps(self):
        alpha, gamma = self.system.from_geodetic(math.radians(80), 0.3)
        assert gamma == pytest.approx(math.pi / 2)

    def test_both_representations_distinct(self):
        reps = self.system.both_representations(math.radians(30),
                                                math.radians(10))
        assert len(reps) == 2
        (a1, g1), (a2, g2) = reps
        assert g1 != pytest.approx(g2)

    @pytest.mark.parametrize("inclination_deg",
                             [53.0, 86.4, 90.0, 97.6, 127.0])
    @pytest.mark.parametrize("lon", [-math.pi, math.pi, 0.0, 2.5])
    def test_one_conversion_on_the_edges(self, inclination_deg, lon):
        system = InclinedCoordinateSystem(math.radians(inclination_deg))
        band = min(system.inclination, math.pi - system.inclination)
        for lat in (HALF_PI, -HALF_PI, band, -band,
                    math.nextafter(band, 0.0), math.nextafter(band, 2.0),
                    math.nextafter(-band, 0.0), 0.0, -0.0):
            assert (_rep_bits(system.both_representations(lat, lon))
                    == _rep_bits(_two_conversions(system, lat, lon)))

    @given(inclination=st.floats(min_value=0.01, max_value=math.pi),
           lat=st.floats(min_value=-HALF_PI, max_value=HALF_PI),
           lon=st.floats(min_value=-4 * math.pi, max_value=4 * math.pi))
    @example(inclination=math.radians(53.0), lat=HALF_PI, lon=math.pi)
    @example(inclination=math.radians(53.0), lat=-HALF_PI, lon=-math.pi)
    @settings(max_examples=300)
    def test_one_conversion_is_the_two_conversion_bits(self, inclination,
                                                       lat, lon):
        """The descending branch derived from the one ``from_geodetic``
        is the old second conversion, bit for bit."""
        system = InclinedCoordinateSystem(inclination)
        assert (_rep_bits(system.both_representations(lat, lon))
                == _rep_bits(_two_conversions(system, lat, lon)))

    def test_turn_point_has_gamma_pi_over_2(self):
        # A point at exactly the inclination latitude is a turn point.
        alpha, gamma = self.system.from_geodetic(math.radians(53.0), 1.0)
        assert gamma == pytest.approx(math.pi / 2)

    def test_cell_area_scales_with_cos_gamma(self):
        a_eq = self.system.angular_cell_area(0.1, 0.1, 0.0, EARTH_RADIUS_KM)
        a_mid = self.system.angular_cell_area(0.1, 0.1, 1.0, EARTH_RADIUS_KM)
        assert a_eq > a_mid
        assert a_mid / a_eq == pytest.approx(math.cos(1.0))

    def test_total_band_area(self):
        """Integrating the area element recovers the inclination band."""
        system = self.system
        steps = 2000
        dg = math.pi / steps
        total = sum(
            system.angular_cell_area(TWO_PI, dg, -math.pi / 2 + (k + 0.5) * dg,
                                     EARTH_RADIUS_KM)
            for k in range(steps)
        )
        band = (4.0 * math.pi * EARTH_RADIUS_KM**2
                * math.sin(math.radians(53.0)))
        assert total == pytest.approx(band, rel=1e-4)

    def test_near_polar_system_covers_almost_everything(self):
        polar = InclinedCoordinateSystem(math.radians(87.9))
        alpha, gamma = polar.from_geodetic(math.radians(85.0), 0.0)
        lat, _ = polar.to_geodetic(alpha, gamma)
        assert lat == pytest.approx(math.radians(85.0), abs=1e-9)
