"""Tests for the network functions and the executable procedures."""

import pytest

from repro.fiveg import (
    MOBILITY_REGISTRATION_FLOW,
    CoreNetwork,
    ProcedureRunner,
    SessionState,
    SpaceCoreRegistrar,
)
from repro.fiveg.nf import THROTTLED_KBPS, Upf
from repro.fiveg.state import BillingState, QosState


@pytest.fixture()
def core():
    return CoreNetwork()


@pytest.fixture()
def registered(core):
    ue = core.provision_subscriber(1)
    runner = ProcedureRunner(core)
    runner.initial_registration(ue, tracking_area=(2, 2))
    return core, ue, runner


class TestUpf:
    def test_rule_lifecycle(self):
        upf = Upf("u1")
        upf.install_rule(7, "2001:db8::1", QosState())
        assert upf.session_count == 1
        upf.remove_rule(7)
        assert upf.session_count == 0
        assert not upf.forward_uplink(7, 100)

    def test_uplink_forwarding_counts_usage(self):
        upf = Upf("u1")
        upf.install_rule(7, "2001:db8::1", QosState())
        assert upf.forward_uplink(7, 1500)
        assert upf.usage_report(7) == 1500

    def test_no_rule_drops(self):
        upf = Upf("u1")
        assert not upf.forward_uplink(9, 100)
        assert upf.packets_dropped == 1


class TestPcf:
    def test_policy_from_profile(self, core):
        ue = core.provision_subscriber(5, quota_mb=100)
        qos, billing = core.pcf.establish(core.udm.profile(ue.supi))
        assert billing.quota_mb == 100
        assert qos.forwarding_rules

    def test_throttle_after_quota(self, core):
        """S4.4's example: 128 Kbps after the quota is burnt."""
        qos = QosState(max_bitrate_down_kbps=100_000)
        billing = BillingState(quota_mb=10, used_mb=20)
        new_qos, _ = core.pcf.reevaluate(qos, billing)
        assert new_qos.max_bitrate_down_kbps == THROTTLED_KBPS
        assert new_qos.max_bitrate_up_kbps == THROTTLED_KBPS

    def test_no_throttle_under_quota(self, core):
        qos = QosState(max_bitrate_down_kbps=100_000)
        billing = BillingState(quota_mb=100, used_mb=1)
        new_qos, _ = core.pcf.reevaluate(qos, billing)
        assert new_qos.max_bitrate_down_kbps == 100_000


class TestRegistration:
    def test_registration_creates_context(self, registered):
        core, ue, _ = registered
        context = core.amf.context(ue.supi)
        assert context is not None
        assert ue.guti is not None

    def test_registration_counts(self, registered):
        core, _, _ = registered
        assert core.amf.registrations == 1
        assert core.ausf.authentications_succeeded == 1
        assert core.udm.vectors_generated == 1

    def test_unknown_subscriber_rejected(self, core):
        from repro.fiveg.identifiers import Supi
        from repro.fiveg.ue import UserEquipment
        stranger = UserEquipment(Supi(core.plmn, 999), b"k" * 32,
                                 core.home_verify_key)
        runner = ProcedureRunner(core)
        with pytest.raises(KeyError):
            runner.initial_registration(stranger, (0, 0))

    def test_emits_figure9a_message_count(self, registered):
        _, _, runner = registered
        assert runner.bus.count("C1") == 14

    def test_reregistration_replaces_context(self, registered):
        core, ue, runner = registered
        first_guti = ue.guti
        runner.initial_registration(ue, tracking_area=(3, 3))
        assert core.amf.context(ue.supi).tracking_area == (3, 3)
        assert ue.guti != first_guti


class TestMobility:
    def test_mobility_message_count(self):
        """Fig. 9d: the legacy mobility registration is 13 messages."""
        assert len(MOBILITY_REGISTRATION_FLOW) == 13


class TestSpaceCoreRegistrar:
    def test_delegation_produces_verifiable_replica(self):
        core = CoreNetwork()
        ue = core.provision_subscriber(3)
        registrar = SpaceCoreRegistrar(core)
        registrar.register_and_delegate(ue, (1, 1), (5, 5), 0.0)
        assert ue.replica is not None
        # An enrolled satellite can open and verify the replica.
        from repro.crypto import decrypt
        creds = core.enroll_satellite("sat-x")
        blob = decrypt(creds.abe_key, ue.replica.ciphertext)
        assert core.home_verify_key.verify(blob, ue.replica.signature)
        state = SessionState.from_bytes(blob)
        assert state.location.cell_id == [5, 5] or \
            tuple(state.location.cell_id) == (5, 5)

    def test_replica_contains_dh_parameters(self):
        """Algorithm 2: state includes (p, g) for the key agreement."""
        core = CoreNetwork()
        ue = core.provision_subscriber(4)
        SpaceCoreRegistrar(core).register_and_delegate(ue, (1, 1), (5, 5), 0.0)
        from repro.crypto import decrypt
        creds = core.enroll_satellite("sat-y")
        state = SessionState.from_bytes(
            decrypt(creds.abe_key, ue.replica.ciphertext))
        assert state.security.dh_generator == 4
        assert state.security.dh_prime_hex.startswith("0x")

    def test_k_seaf_never_delegated(self):
        """The anchor key stays home (S4.4): check the bundle."""
        core = CoreNetwork()
        ue = core.provision_subscriber(6)
        SpaceCoreRegistrar(core).register_and_delegate(ue, (1, 1), (5, 5), 0.0)
        from repro.crypto import decrypt
        creds = core.enroll_satellite("sat-z")
        state = SessionState.from_bytes(
            decrypt(creds.abe_key, ue.replica.ciphertext))
        assert state.security.k_seaf == ""
        assert state.security.authentication_vector == ""
