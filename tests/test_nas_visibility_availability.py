"""Tests for coverage statistics, gateway reachability and availability."""

import math

import numpy as np
import pytest

from repro.experiments import availability_sweep, gateway_reachability
from repro.orbits import IdealPropagator, iridium, starlink
from repro.orbits.coverage import visible_satellites
from repro.orbits.snapshot import sample_times


def _visible_counts(constellation, lat_deg, duration_s, step_s=30.0):
    """Satellites visible from ``(lat_deg, 0)`` every ``step_s``."""
    propagator = IdealPropagator(constellation)
    lat = math.radians(lat_deg)
    return np.array([len(visible_satellites(propagator, t, lat, 0.0))
                     for t in sample_times(0.0, duration_s, step_s)])


class TestCoverageStatistics:
    def test_starlink_midlatitude_continuous(self):
        counts = _visible_counts(starlink(), 40.0, duration_s=1800.0)
        assert (counts > 0).all()
        assert counts.mean() >= 1.0

    def test_starlink_polar_uncovered(self):
        counts = _visible_counts(starlink(), 85.0, duration_s=600.0)
        assert not counts.any()

    def test_iridium_polar_covered(self):
        counts = _visible_counts(iridium(), 85.0, duration_s=1200.0)
        assert (counts > 0).mean() > 0.9

    def test_coverage_by_latitude_profile(self):
        by_lat = {lat: _visible_counts(starlink(), lat, duration_s=900.0)
                  for lat in (0.0, 45.0, 70.0)}
        # Mid-latitudes see more satellites than the equator (turn-
        # point bunching), and 70 deg is outside the 53 deg band.
        assert by_lat[45.0].mean() > by_lat[0.0].mean()
        assert (by_lat[70.0] > 0).mean() < 0.5


class TestAvailability:
    def test_reachability_full_when_healthy(self):
        assert gateway_reachability(starlink(), 0.0) == 1.0

    def test_reachability_degrades_gracefully(self):
        """The +Grid is redundant: 20% failures barely partition it."""
        reach = gateway_reachability(starlink(), 0.2, seed=1)
        assert 0.9 < reach <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gateway_reachability(starlink(), 1.0)

    def test_spacecore_availability_advantage(self):
        points = availability_sweep(starlink(),
                                    failure_fractions=(0.0, 0.1))
        availability = {(p.failure_fraction, p.solution): p.availability
                        for p in points}
        for level in (0.0, 0.1):
            gap = (availability[level, "SpaceCore"]
                   - availability[level, "5G NTN"])
            assert gap > 0.2, f"no advantage at {level}"

    def test_spacecore_immune_to_gateway_partition(self):
        points = availability_sweep(starlink(),
                                    failure_fractions=(0.2,))
        spacecore_point = next(p for p in points
                               if p.solution == "SpaceCore")
        assert spacecore_point.reachability == 1.0
