"""Tests for Trace 1 replay, CPU replay series, and NF edge cases."""


import pytest

from repro.core import SpaceCoreSatellite, SpaceCoreHome
from repro.fiveg.nf import Upf
from repro.workload import (
    CpuSample,
    replay_cpu_series,
    timeline_duration_s,
    trace1_timeline,
)


class TestTrace1:
    def test_event_order_is_the_protocol(self):
        timeline = trace1_timeline(seed=1)
        texts = [e.text for e in timeline]
        assert texts[0] == "Initiating service request"
        assert texts[-1] == "pdp new state Active"
        assert any("RAU" in t for t in texts)
        assert any("Authentication" in t for t in texts)

    def test_timestamps_monotone(self):
        timeline = trace1_timeline(seed=2)
        times = [e.t_s for e in timeline]
        assert times == sorted(times)

    def test_duration_matches_measured_distribution(self):
        """Ensembles reproduce the ~9.5 s Inmarsat mean (Fig. 5b)."""
        durations = [timeline_duration_s(trace1_timeline(seed=s))
                     for s in range(300)]
        mean = sum(durations) / len(durations)
        assert mean == pytest.approx(9.5, rel=0.15)

    def test_layers_follow_trace1(self):
        timeline = trace1_timeline()
        layers = {e.layer for e in timeline}
        assert {"GMM", "MM", "SM"}.issubset(layers)


class TestReplayCpuSeries:
    def test_series_covers_duration(self):
        series = replay_cpu_series("tiantong-sc310", 3000, window_s=30.0)
        assert len(series) == 20
        assert all(isinstance(s, CpuSample) for s in series)

    def test_messages_accounted(self):
        series = replay_cpu_series("tiantong-sc310", 2000, window_s=20.0)
        assert sum(s.messages for s in series) == pytest.approx(
            2000, abs=50)

    def test_cpu_capped(self):
        series = replay_cpu_series("china-mobile", 200_000, window_s=10.0)
        assert all(0.0 <= s.cpu_percent <= 100.0 for s in series)

    def test_heavier_replay_costs_more(self):
        light = replay_cpu_series("tiantong-sc310", 1000)
        heavy = replay_cpu_series("tiantong-sc310", 20000)
        assert (sum(s.cpu_percent for s in heavy)
                > sum(s.cpu_percent for s in light))

    def test_validation(self):
        with pytest.raises(ValueError):
            replay_cpu_series("tiantong-sc310", 10, window_s=0.0)


class TestNfEdgeCases:
    def test_smf_requires_upf(self):
        from repro.fiveg.nf import Smf
        from repro.geo import AddressAllocator
        smf = Smf("lonely", AddressAllocator(46000))
        with pytest.raises(RuntimeError):
            smf.select_upf()

    def test_upf_remove_unknown_rule_is_noop(self):
        upf = Upf("u")
        upf.remove_rule(42)  # must not raise

    def test_upf_usage_report_unknown_tunnel(self):
        assert Upf("u").usage_report(7) == 0


class TestSatelliteQosEnforcement:
    def test_satellite_upf_enforces_replica_qos(self):
        """A home-set 8 kbps subscription is enforced in orbit."""
        home = SpaceCoreHome()
        creds = home.enroll_satellite("sat-q")
        satellite = SpaceCoreSatellite("sat-q", creds)
        ue = home.provision_subscriber(9, max_bitrate_up_kbps=8)
        home.register(ue, (1, 1), (1, 1), 0.0)
        satellite.establish_session_locally(ue, 0.0, home.verify_key)
        supi = str(ue.supi)
        assert satellite.forward_uplink(supi, 1000, now_s=0.0)
        # The 8 kbps bucket (1 kB/s, 1.5 kB burst floor) runs dry.
        assert not satellite.forward_uplink(supi, 1500, now_s=0.05)
        # ... and refills with time.
        assert satellite.forward_uplink(supi, 1000, now_s=5.0)

    def test_unshaped_when_no_clock(self):
        home = SpaceCoreHome()
        creds = home.enroll_satellite("sat-r")
        satellite = SpaceCoreSatellite("sat-r", creds)
        ue = home.provision_subscriber(10, max_bitrate_up_kbps=8)
        home.register(ue, (1, 1), (1, 1), 0.0)
        satellite.establish_session_locally(ue, 0.0, home.verify_key)
        for _ in range(5):
            assert satellite.forward_uplink(str(ue.supi), 1500)
