"""Tests for the UDSF comparison and the live-stack emulation."""

import pytest

from repro.fiveg.nf.udsf import compare_state_retrieval
from repro.orbits import starlink
from repro.sim import NeighborhoodEmulation


class TestUdsf:
    def test_footnote3_comparison(self):
        """Device-as-repository beats a ground UDSF by the whole RTT."""
        udsf_latency, device_latency = compare_state_retrieval(
            udsf_rtt_s=0.120, local_crypto_s=0.004)
        assert device_latency < udsf_latency / 10


class TestNeighborhoodEmulation:
    @pytest.fixture(scope="class")
    def stats(self):
        emulation = NeighborhoodEmulation(starlink(), num_ues=12,
                                          seed=5,
                                          session_interval_s=40.0)
        result = emulation.run(480.0)
        # Stash the emulation for per-test assertions.
        result.emulation = emulation
        return result

    def test_sessions_succeed(self, stats):
        assert stats.sessions_attempted > 0
        assert stats.sessions_established == stats.sessions_attempted
        assert stats.fallbacks == 0

    def test_measured_rate_matches_analytic(self, stats):
        """Emulation cross-validates the closed-form workload rates."""
        predicted = stats.emulation.predicted_session_rate_per_ue()
        assert stats.session_rate_per_ue == pytest.approx(predicted,
                                                          rel=0.35)

    def test_uplink_follows_establishment(self, stats):
        assert stats.uplink_packets == stats.sessions_established

    def test_releases_follow_sessions(self, stats):
        # Every session not still active at the horizon was released.
        assert 0 < stats.releases <= stats.sessions_established

    def test_some_handovers_happen(self, stats):
        """Active sessions crossing pass boundaries hand over locally."""
        assert stats.handovers >= 1

    def test_signaling_counted(self, stats):
        # 4 messages per local establishment, plus handover flows.
        assert stats.signaling_messages >= 4 * stats.sessions_established

    def test_no_lingering_state_for_idle_ues(self, stats):
        """After the run, released UEs left no satellite-side state."""
        emulation = stats.emulation
        lingering = sum(
            emulation.system.satellite(index).served_count
            for index in emulation.system._satellites)
        connected = sum(1 for ue in emulation.ues if ue.connected)
        assert lingering == connected

    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborhoodEmulation(starlink(), seed=0, num_ues=0)

    def test_usage_reports_flow_to_home(self, stats):
        """The S4.4 billing loop runs inside the emulation."""
        assert stats.usage_reports > 0
        assert stats.state_updates_pushed >= stats.usage_reports

    def test_replica_versions_advance_with_usage(self, stats):
        """Home-pushed updates bump the delegated state versions."""
        emulation = stats.emulation
        versions = [ue.replica.version for ue in emulation.ues
                    if ue.replica is not None]
        assert max(versions) > 1

    def test_billing_accumulates_across_sessions(self, stats):
        """Charged megabytes survive establishment cycles."""
        from repro.crypto import decrypt, keygen
        from repro.fiveg import SessionState
        emulation = stats.emulation
        home = emulation.system.home
        charged = []
        for ue in emulation.ues:
            key = keygen(home.core.abe_master,
                         ("role:ue", f"supi:{ue.supi}"))
            state = SessionState.from_bytes(
                decrypt(key, ue.replica.ciphertext))
            charged.append(state.billing.used_mb)
        assert max(charged) > 0.0
