"""Tests for QoS shaping and paging."""

import pytest

from repro.core.paging import geospatial_cell_cost, legacy_tracking_area_cost
from repro.fiveg.qos import QosShaper, TokenBucket
from repro.fiveg.state import QosState
from repro.geo import GeospatialCellGrid
from repro.orbits import starlink


class TestTokenBucket:
    def test_admits_within_rate(self):
        bucket = TokenBucket(rate_bytes_s=1000.0, burst_bytes=1000.0)
        assert bucket.admit(500, 0.0)
        assert bucket.admit(500, 0.0)
        assert not bucket.admit(500, 0.0)  # bucket empty

    def test_refills_over_time(self):
        bucket = TokenBucket(rate_bytes_s=1000.0, burst_bytes=1000.0)
        bucket.admit(1000, 0.0)
        assert not bucket.admit(1000, 0.5)  # only 500 refilled
        assert bucket.admit(1000, 1.5)

    def test_burst_capped(self):
        bucket = TokenBucket(rate_bytes_s=1000.0, burst_bytes=1000.0)
        # A long idle refills to the burst size, never past it.
        assert bucket.admit(1000, 100.0)
        assert not bucket.admit(1, 100.0)

    def test_time_backwards_rejected(self):
        bucket = TokenBucket(1000.0, 1000.0)
        bucket.admit(1, 5.0)
        with pytest.raises(ValueError):
            bucket.admit(1, 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 100.0)
        bucket = TokenBucket(10.0, 10.0)
        with pytest.raises(ValueError):
            bucket.admit(-1, 0.0)


class TestQosShaper:
    def test_shapes_to_configured_rate(self):
        shaper = QosShaper(QosState(max_bitrate_down_kbps=512))
        achieved = shaper.achievable_throughput_kbps("down", 5.0)
        # Sustained rate plus the initial one-second burst allowance
        # amortised over the window: 512 * (1 + 1/5) at most.
        assert 512 <= achieved <= 512 * 1.25

    def test_throttle_reconfiguration_bites(self):
        """The paper's 128 Kbps throttle actually slows the session."""
        shaper = QosShaper(QosState(max_bitrate_down_kbps=100_000))
        fast = shaper.achievable_throughput_kbps("down", 2.0)
        throttled = QosShaper(QosState(max_bitrate_down_kbps=128))
        slow = throttled.achievable_throughput_kbps("down", 2.0)
        assert slow < fast / 100
        assert slow == pytest.approx(128, rel=0.5)

    def test_counters(self):
        shaper = QosShaper(QosState(max_bitrate_up_kbps=8))  # 1 kB/s
        assert shaper.admit_uplink(1000, 0.0)
        assert not shaper.admit_uplink(1500, 0.1)
        assert shaper.uplink.admitted == 1
        assert shaper.uplink.dropped == 1


class TestEnforcingUpf:
    def make_upf(self, kbps=8):
        from repro.fiveg.nf import Upf
        upf = Upf("edge", enforce_qos=True)
        upf.install_rule(1, "2001:db8::1",
                         QosState(max_bitrate_up_kbps=kbps,
                                  max_bitrate_down_kbps=kbps))
        return upf

    def test_enforcement_drops_over_rate_traffic(self):
        upf = self.make_upf(kbps=8)  # 1 kB/s, 1.5 kB burst floor
        assert upf.forward_uplink(1, 1500, now_s=0.0)
        assert not upf.forward_uplink(1, 1500, now_s=0.01)
        assert upf.packets_dropped == 1

    def test_no_timestamp_skips_shaping(self):
        """Legacy call sites without clocks keep working unshaped."""
        upf = self.make_upf(kbps=8)
        for _ in range(5):
            assert upf.forward_uplink(1, 1500)

    def test_non_enforcing_upf_has_no_shaper(self):
        from repro.fiveg.nf import Upf
        upf = Upf("plain")
        entry = upf.install_rule(1, "2001:db8::2", QosState())
        assert entry.shaper is None


class TestPaging:
    def test_geospatial_paging_cheaper_than_tracking_area(self):
        """SpaceCore pages one footprint; legacy pages a whole area."""
        constellation = starlink()
        grid = GeospatialCellGrid(constellation)
        legacy = legacy_tracking_area_cost(constellation)
        spacecore = geospatial_cell_cost(grid)
        assert (spacecore.transmitting_satellites
                < legacy.transmitting_satellites / 4)
        assert spacecore.paged_area_km2 < legacy.paged_area_km2
