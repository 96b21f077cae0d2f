"""Snapshot-backed geometry must agree with the pre-snapshot scalar path.

The perf refactor moved the coverage/routing hot path onto
epoch-keyed :mod:`repro.orbits.snapshot` bundles.  These tests pin the
refactor to the original semantics: for random (constellation, t, UE)
samples, the snapshot-backed queries return the *same decisions* --
same serving satellite, same visible sets, same Algorithm 1 hops and
routed paths -- as faithful replicas of the pre-refactor scalar code,
under both the ideal and the J4 propagators.
"""

import math

import numpy as np
import pytest

from repro.orbits import (
    clear_snapshot_cache,
    iridium,
    make_propagator,
    snapshot_for,
    starlink,
)
from repro.orbits.coordinates import central_angle, wrap_signed
from repro.orbits.coverage import (
    coverage_half_angle,
    serving_satellite,
    visible_satellites,
)
from repro.orbits.snapshot import serving_over_times, serving_satellites
from repro.topology.grid import GridTopology
from repro.topology.routing import GeospatialRouter, RouteResult

BEIJING = (math.radians(39.9), math.radians(116.4))
NEW_YORK = (math.radians(40.7), math.radians(-74.0))


# ---------------------------------------------------------------------------
# Faithful replicas of the pre-refactor scalar implementations
# ---------------------------------------------------------------------------

def _scalar_visible(propagator, t, ue_lat, ue_lon, min_elevation_deg=None):
    """Pre-refactor coverage.visible_satellites (per-query full scan)."""
    c = propagator.constellation
    if min_elevation_deg is None:
        min_elevation_deg = c.min_elevation_deg
    theta = coverage_half_angle(c.altitude_km, min_elevation_deg)
    subs = propagator.subpoints(t)
    dlat = subs[:, 0] - ue_lat
    dlon = subs[:, 1] - ue_lon
    h = (np.sin(dlat / 2.0) ** 2
         + np.cos(subs[:, 0]) * math.cos(ue_lat) * np.sin(dlon / 2.0) ** 2)
    ang = 2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    return list(np.nonzero(ang <= theta)[0])


def _scalar_serving(propagator, t, ue_lat, ue_lon, min_elevation_deg=None):
    """Pre-refactor coverage.serving_satellite."""
    c = propagator.constellation
    if min_elevation_deg is None:
        min_elevation_deg = c.min_elevation_deg
    theta = coverage_half_angle(c.altitude_km, min_elevation_deg)
    subs = propagator.subpoints(t)
    dlat = subs[:, 0] - ue_lat
    dlon = subs[:, 1] - ue_lon
    h = (np.sin(dlat / 2.0) ** 2
         + np.cos(subs[:, 0]) * math.cos(ue_lat) * np.sin(dlon / 2.0) ** 2)
    ang = 2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    best = int(np.argmin(ang))
    if ang[best] > theta:
        return -1
    return best


class _ScalarRouter(GeospatialRouter):
    """GeospatialRouter with the pre-refactor per-hop scalar geometry.

    Every hop re-derives the satellite's subpoint and runtime
    coordinates from ``propagator.state()`` -- exactly what the code
    did before the snapshot layer.
    """

    def covers(self, sat, dest_lat, dest_lon, t):
        plane, slot = self.topology.constellation.plane_slot(sat)
        sat_lat, sat_lon = self.topology.propagator.state(
            plane, slot, t).subpoint()
        return (central_angle(sat_lat, sat_lon, dest_lat, dest_lon)
                <= self.coverage_angle)

    def _hop_offsets(self, sat, dest_lat, dest_lon, t):
        c = self.topology.constellation
        plane, slot = c.plane_slot(sat)
        state = self.topology.propagator.state(plane, slot, t)
        alpha_s = state.raan_ecef
        gamma_s = state.arg_latitude
        best = None
        best_metric = math.inf
        for alpha_d, gamma_d in self.system.both_representations(
                dest_lat, dest_lon):
            da = wrap_signed(alpha_d - alpha_s) / c.delta_raan
            dg = wrap_signed(gamma_d - gamma_s) / c.delta_phase
            metric = abs(da) + abs(dg)
            if metric < best_metric:
                best_metric = metric
                best = (da, dg)
        return best

    def next_hop(self, sat, dest_lat, dest_lon, t):
        da, dg = self._hop_offsets(sat, dest_lat, dest_lon, t)
        if abs(da) < 0.5 and abs(dg) < 0.5:
            return None
        neighbors = self.topology.directional_neighbors(sat)
        if abs(da) > abs(dg):
            direction = "right" if da > 0 else "left"
        else:
            direction = "up" if dg > 0 else "down"
        return neighbors[direction]

    def _nearly_covers(self, sat, dest_lat, dest_lon, t):
        plane, slot = self.topology.constellation.plane_slot(sat)
        sat_lat, sat_lon = self.topology.propagator.state(
            plane, slot, t).subpoint()
        return (central_angle(sat_lat, sat_lon, dest_lat, dest_lon)
                <= self.coverage_angle * self.degraded_slack)

    def _best_live_neighbor(self, sat, dest_lat, dest_lon, t, visited):
        best = None
        best_metric = math.inf
        for nbr in self.topology.isl_neighbors(sat):
            if nbr in visited:
                continue
            da, dg = self._hop_offsets(nbr, dest_lat, dest_lon, t)
            metric = abs(da) + abs(dg)
            if metric < best_metric:
                best_metric = metric
                best = nbr
        return best

    def route(self, src_sat, dest_lat, dest_lon, t):
        topo = self.topology
        path = [src_sat]
        visited = {src_sat}
        delay = 0.0
        distance = 0.0
        current = src_sat
        for _ in range(self.max_hops):
            if self.covers(current, dest_lat, dest_lon, t):
                return RouteResult(True, path, delay, distance)
            preferred = self.next_hop(current, dest_lat, dest_lon, t)
            if preferred is None:
                if self._nearly_covers(current, dest_lat, dest_lon, t):
                    return RouteResult(True, path, delay, distance,
                                       degraded=True)
                preferred = self._best_live_neighbor(current, dest_lat,
                                                     dest_lon, t, visited)
            if (preferred is None or preferred in visited
                    or not topo.isl_up(current, preferred)):
                preferred = self._best_live_neighbor(current, dest_lat,
                                                     dest_lon, t, visited)
            if preferred is None:
                return RouteResult(False, path, delay, distance)
            delay += topo.isl_delay_s(current, preferred, t)
            distance += topo.isl_distance_km(current, preferred, t)
            current = preferred
            path.append(current)
            visited.add(current)
        return RouteResult(False, path, delay, distance)


def _sample_points(rng, count):
    lats = np.radians(rng.uniform(-55.0, 55.0, count))
    lons = np.radians(rng.uniform(-180.0, 180.0, count))
    return lats, lons


PROPAGATOR_KINDS = ["ideal", "j4"]
CONSTELLATIONS = [starlink, iridium]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_snapshot_cache()
    yield
    clear_snapshot_cache()


class TestCoverageEquivalence:
    """serving/visible queries bit-match the scalar full-scan path."""

    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    @pytest.mark.parametrize("factory", CONSTELLATIONS)
    def test_serving_satellite_bit_match(self, factory, kind):
        prop = make_propagator(factory(), kind)
        rng = np.random.default_rng(1)
        lats, lons = _sample_points(rng, 40)
        for t, lat, lon in zip(rng.uniform(0, 7000, 40), lats, lons):
            assert (serving_satellite(prop, float(t), lat, lon)
                    == _scalar_serving(prop, float(t), lat, lon))

    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    @pytest.mark.parametrize("factory", CONSTELLATIONS)
    def test_visible_satellites_bit_match(self, factory, kind):
        prop = make_propagator(factory(), kind)
        rng = np.random.default_rng(2)
        lats, lons = _sample_points(rng, 40)
        for t, lat, lon in zip(rng.uniform(0, 7000, 40), lats, lons):
            got = visible_satellites(prop, float(t), lat, lon)
            want = _scalar_visible(prop, float(t), lat, lon)
            assert list(map(int, got)) == list(map(int, want))

    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    def test_snapshot_arrays_bit_match_scalar_state(self, kind):
        c = starlink()
        prop = make_propagator(c, kind)
        rng = np.random.default_rng(3)
        for t in rng.uniform(0, 7000, 10):
            snap = snapshot_for(prop, float(t))
            assert np.array_equal(snap.subpoints, prop.subpoints(float(t)))
            assert np.array_equal(snap.positions_ecef,
                                  prop.positions_ecef(float(t)))
            for sat in rng.integers(0, c.total_satellites, 25):
                plane, slot = c.plane_slot(int(sat))
                state = prop.state(plane, slot, float(t))
                assert snap.raan_ecef[sat] == state.raan_ecef
                assert snap.arg_latitude[sat] == state.arg_latitude


class TestBatchEquivalence:
    """Batch (M users x N sats) APIs match per-user scalar queries."""

    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    def test_serving_batch(self, kind):
        prop = make_propagator(starlink(), kind)
        rng = np.random.default_rng(4)
        lats, lons = _sample_points(rng, 100)
        t = 1234.5
        batch = serving_satellites(prop, t, lats, lons)
        for i in range(len(lats)):
            assert int(batch[i]) == _scalar_serving(
                prop, t, float(lats[i]), float(lons[i]))


class TestTimeGridEquivalence:
    """The O(T + N)-trig time-grid kernels pick the same satellites."""

    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    @pytest.mark.parametrize("factory", CONSTELLATIONS)
    def test_serving_over_times(self, factory, kind):
        prop = make_propagator(factory(), kind)
        rng = np.random.default_rng(6)
        times = [float(t) for t in rng.uniform(0, 7000, 120)]
        lat, lon = BEIJING
        fast = serving_over_times(prop, times, lat, lon)
        for t, sat in zip(times, fast):
            assert int(sat) == _scalar_serving(prop, t, lat, lon)


class TestRouterEquivalence:
    """Algorithm 1 hop decisions and full paths match the scalar router."""

    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    @pytest.mark.parametrize("factory", CONSTELLATIONS)
    def test_routed_paths_match(self, factory, kind):
        prop = make_propagator(factory(), kind)
        topology = GridTopology(prop, [])
        fast = GeospatialRouter(topology, max_hops=512)
        slow = _ScalarRouter(topology, max_hops=512)
        rng = np.random.default_rng(8)
        lats, lons = _sample_points(rng, 12)
        for t, lat, lon in zip(rng.uniform(0, 6000, 12), lats, lons):
            src = _scalar_serving(prop, float(t), *BEIJING)
            if src < 0:
                continue
            a = fast.route(src, float(lat), float(lon), float(t))
            b = slow.route(src, float(lat), float(lon), float(t))
            assert a.delivered == b.delivered
            assert a.path == b.path
            assert a.degraded == b.degraded
            assert a.delay_s == pytest.approx(b.delay_s, rel=1e-9)

    @pytest.mark.parametrize("kind", PROPAGATOR_KINDS)
    def test_per_hop_decisions_match(self, kind):
        prop = make_propagator(starlink(), kind)
        topology = GridTopology(prop, [])
        fast = GeospatialRouter(topology)
        slow = _ScalarRouter(topology)
        # The walk decides each hop inline; a one-hop route reads one
        # decision (cover, degraded delivery, next hop or deflection).
        fast_hop = GeospatialRouter(topology, max_hops=1)
        slow_hop = _ScalarRouter(topology, max_hops=1)
        rng = np.random.default_rng(9)
        c = prop.constellation
        for _ in range(60):
            t = float(rng.uniform(0, 6000))
            sat = int(rng.integers(0, c.total_satellites))
            lat = float(np.radians(rng.uniform(-55, 55)))
            lon = float(np.radians(rng.uniform(-180, 180)))
            covered = fast.covers(sat, lat, lon, t)
            assert covered == slow.covers(sat, lat, lon, t)
            a = fast_hop.route(sat, lat, lon, t)
            b = slow_hop.route(sat, lat, lon, t)
            assert (a.delivered, a.path, a.degraded) == (
                b.delivered, b.path, b.degraded)
            preferred = slow.next_hop(sat, lat, lon, t)
            if not covered and preferred is not None:
                # No faults: the preferred hop is always taken.
                assert a.path == [sat, preferred]

    def test_routes_under_failures_match(self):
        prop = make_propagator(starlink(), "ideal")
        topology = GridTopology(prop, [])
        rng = np.random.default_rng(10)
        for sat in rng.integers(0, prop.constellation.total_satellites, 30):
            topology.fail_satellite(int(sat))
        fast = GeospatialRouter(topology, max_hops=512)
        slow = _ScalarRouter(topology, max_hops=512)
        t = 500.0
        src = _scalar_serving(prop, t, *BEIJING)
        assert src >= 0
        a = fast.route(src, *NEW_YORK, t)
        b = slow.route(src, *NEW_YORK, t)
        assert a.delivered == b.delivered
        assert a.path == b.path


class TestCacheBehaviour:
    """Snapshot identity and immutability invariants."""

    def test_snapshot_is_cached_per_epoch(self):
        prop = make_propagator(starlink(), "ideal")
        assert snapshot_for(prop, 10.0) is snapshot_for(prop, 10.0)
        assert snapshot_for(prop, 10.0) is not snapshot_for(prop, 20.0)

    def test_distinct_propagators_do_not_alias(self):
        a = make_propagator(starlink(), "ideal")
        b = make_propagator(starlink(), "j4")
        assert snapshot_for(a, 10.0) is not snapshot_for(b, 10.0)

    def test_arrays_are_immutable(self):
        prop = make_propagator(starlink(), "ideal")
        snap = snapshot_for(prop, 0.0)
        with pytest.raises(ValueError):
            snap.subpoints[0, 0] = 0.0
        with pytest.raises(ValueError):
            snap.positions_ecef[0, 0] = 0.0

    def test_failure_injection_does_not_touch_geometry(self):
        prop = make_propagator(starlink(), "ideal")
        topology = GridTopology(prop, [])
        before = snapshot_for(prop, 42.0)
        topology.fail_satellite(7)
        assert snapshot_for(prop, 42.0) is before
