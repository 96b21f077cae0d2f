"""Tests for SpaceCore: stateless satellites, home authority, system."""


import pytest

from repro.core import (
    FallbackRequired,
    SpaceCoreSystem,
)
from repro.core.home import SpaceCoreHome
from repro.core.satellite import SpaceCoreSatellite
from repro.fiveg import SessionState
from repro.orbits import starlink


@pytest.fixture()
def system():
    return SpaceCoreSystem(starlink())


@pytest.fixture()
def registered_ue(system):
    ue = system.provision_ue(39.9, 116.4)  # Beijing
    system.register(ue, 0.0)
    return ue


class TestRegistrationAndDelegation:
    def test_register_allocates_geospatial_ip(self, system, registered_ue):
        from repro.geo import GeospatialAddress
        address = GeospatialAddress.from_ipv6(registered_ue.ip_address)
        assert address.ue_cell == system.cell_of(registered_ue)

    def test_register_delegates_replica(self, registered_ue):
        assert registered_ue.replica is not None
        assert registered_ue.replica.version == 1

    def test_ue_cannot_read_its_own_ciphertext_without_key(
            self, system, registered_ue):
        """The UE carries the blob; only its ABE key opens it."""
        from repro.crypto import AbeDecryptionError, decrypt, keygen
        wrong = keygen(system.home.core.abe_master, ["role:nobody"])
        with pytest.raises(AbeDecryptionError):
            decrypt(wrong, registered_ue.replica.ciphertext)
        ue_key = keygen(system.home.core.abe_master,
                        ("role:ue", f"supi:{registered_ue.supi}"))
        blob = decrypt(ue_key, registered_ue.replica.ciphertext)
        assert SessionState.from_bytes(blob).identifiers.supi == str(
            registered_ue.supi)


class TestLocalizedEstablishment:
    def test_establish_session_locally(self, system, registered_ue):
        served = system.establish_session(registered_ue)
        assert served.supi == str(registered_ue.supi)
        assert len(served.session_key) == 32
        assert registered_ue.connected

    def test_satellite_installs_forwarding_rule(self, system,
                                                registered_ue):
        system.establish_session(registered_ue)
        sat = system.satellite(
            system._ue_serving_sat[str(registered_ue.supi)])
        assert sat.upf.session_count == 1
        assert system.send_uplink(registered_ue, 1500)

    def test_unregistered_ue_falls_back(self, system):
        fresh = system.provision_ue(39.9, 116.4)
        with pytest.raises(FallbackRequired):
            system.establish_session(fresh)

    def test_fresh_session_key_per_establishment(self, system,
                                                 registered_ue):
        k1 = system.establish_session(registered_ue).session_key
        system.release(registered_ue)
        k2 = system.establish_session(registered_ue).session_key
        assert k1 != k2

    def test_release_evaporates_state(self, system, registered_ue):
        system.establish_session(registered_ue)
        sat_idx = system._ue_serving_sat[str(registered_ue.supi)]
        system.release(registered_ue)
        assert system.satellite(sat_idx).served_count == 0
        assert not registered_ue.connected

    def test_fallback_repairs_a_garbled_replica(self, system,
                                                registered_ue):
        """S4.2 roll-back: the home refreshes the replica and service
        continues over the same satellite."""
        import dataclasses
        real = registered_ue.replica
        registered_ue.replica = dataclasses.replace(
            real, ciphertext=dataclasses.replace(
                real.ciphertext,
                payload=b"\xff" * len(real.ciphertext.payload)))
        served = system.establish_session(registered_ue,
                                          allow_fallback=True)
        assert served.supi == str(registered_ue.supi)
        assert registered_ue.connected
        # The replica was re-issued by the home during the fallback.
        assert registered_ue.replica.ciphertext.payload != \
            b"\xff" * len(real.ciphertext.payload)

    def test_fallback_cannot_rescue_a_revoked_satellite(self, system,
                                                        registered_ue):
        """Revocation is final: even the legacy path will not let a
        hijacked satellite decrypt new replicas."""
        sat_index = system.serving_satellite_of(registered_ue, 0.0)
        system.home.revoke_satellite(f"sat-{sat_index}")
        with pytest.raises(FallbackRequired):
            system.establish_session(registered_ue, t=0.0,
                                     allow_fallback=True)

    def test_tampered_replica_rejected(self, system, registered_ue):
        """UE-side state manipulation is detected (Appendix B)."""
        import dataclasses
        real = registered_ue.replica
        tampered_ct = dataclasses.replace(
            real.ciphertext,
            payload=bytes([real.ciphertext.payload[0] ^ 1])
            + real.ciphertext.payload[1:])
        registered_ue.replica = dataclasses.replace(
            real, ciphertext=tampered_ct)
        with pytest.raises(FallbackRequired):
            system.establish_session(registered_ue)


class TestHandover:
    def test_handover_to_next_satellite(self, system, registered_ue):
        system.establish_session(registered_ue, t=0.0)
        old_sat = system._ue_serving_sat[str(registered_ue.supi)]
        new_sat = system.handover(registered_ue, t=200.0)
        assert new_sat is not None and new_sat != old_sat
        assert system.satellite(old_sat).served_count == 0
        assert system.satellite(new_sat).served_count == 1

    def test_no_handover_when_same_satellite(self, system, registered_ue):
        system.establish_session(registered_ue, t=0.0)
        assert system.handover(registered_ue, t=0.5) is None

    def test_idle_ue_never_hands_over(self, system, registered_ue):
        assert system.handover(registered_ue, t=200.0) is None


class TestDownlink:
    def test_downlink_reaches_remote_ue(self, system, registered_ue):
        ny = system.provision_ue(40.7, -74.0)
        system.register(ny, 0.0)
        system.establish_session(registered_ue, t=0.0)
        ingress = system._ue_serving_sat[str(registered_ue.supi)]
        result = system.deliver_downlink(ingress, ny, t=0.0)
        assert result.route.delivered
        assert result.paged
        assert ny.connected

    def test_downlink_needs_address(self, system, registered_ue):
        stranger = system.provision_ue(0.0, 20.0)
        with pytest.raises(ValueError):
            system.deliver_downlink(0, stranger, t=0.0)


class TestHomeAuthority:
    def test_usage_report_updates_billing(self):
        home = SpaceCoreHome()
        ue = home.provision_subscriber(1)
        session = home.register(ue, (1, 1), (1, 1), 0.0)
        from repro.fiveg.procedures import build_state_bundle
        bundle = build_state_bundle(session,
                                    home.core.amf.context(ue.supi), (1, 1))
        updated = home.apply_usage_report(ue, bundle, 10_000_000)
        assert updated.billing.used_mb == pytest.approx(10.0)
        assert updated.version == bundle.version + 1
        assert ue.replica.version == updated.version

    def test_quota_exhaustion_throttles(self):
        home = SpaceCoreHome()
        ue = home.provision_subscriber(2, quota_mb=10)
        session = home.register(ue, (1, 1), (1, 1), 0.0)
        from repro.fiveg.procedures import build_state_bundle
        bundle = build_state_bundle(session,
                                    home.core.amf.context(ue.supi), (1, 1))
        updated = home.apply_usage_report(ue, bundle, 20_000_000)
        assert updated.billing.throttled
        assert updated.qos.max_bitrate_down_kbps == 128

    def test_replica_downgrade_refused(self):
        """A malicious UE cannot roll back to an older, cheaper state."""
        home = SpaceCoreHome()
        ue = home.provision_subscriber(3)
        session = home.register(ue, (1, 1), (1, 1), 0.0)
        from repro.fiveg.procedures import build_state_bundle
        bundle = build_state_bundle(session,
                                    home.core.amf.context(ue.supi), (1, 1))
        old_replica = ue.replica
        home.apply_usage_report(ue, bundle, 2000)
        with pytest.raises(ValueError):
            ue.store_replica(old_replica)


class TestRevocation:
    def test_revoked_satellite_cannot_open_new_states(self):
        home = SpaceCoreHome()
        bad_creds = home.enroll_satellite("sat-bad")
        home.enroll_satellite("sat-good")
        home.revoke_satellite("sat-bad")
        ue = home.provision_subscriber(4)
        home.register(ue, (1, 1), (1, 1), 0.0)
        bad_sat = SpaceCoreSatellite("sat-bad", bad_creds)
        with pytest.raises(FallbackRequired):
            bad_sat.establish_session_locally(ue, 0.0, home.verify_key)
        # The re-keyed survivor still works.
        good_sat = SpaceCoreSatellite(
            "sat-good", home.credentials_for("sat-good"))
        served = good_sat.establish_session_locally(ue, 0.0,
                                                    home.verify_key)
        assert served.supi == str(ue.supi)

    def test_epoch_increases_per_revocation(self):
        home = SpaceCoreHome()
        home.enroll_satellite("a")
        home.enroll_satellite("b")
        assert home.epoch == 0
        home.revoke_satellite("a")
        assert home.epoch == 1
        home.revoke_satellite("b")
        assert home.epoch == 2

    def test_exposed_states_bounded_by_served_sessions(self):
        """Fig. 19: hijack leaks only the currently served sessions."""
        home = SpaceCoreHome()
        creds = home.enroll_satellite("sat-1")
        sat = SpaceCoreSatellite("sat-1", creds)
        ues = []
        for msin in range(5, 8):
            ue = home.provision_subscriber(msin)
            home.register(ue, (1, 1), (1, 1), 0.0)
            sat.establish_session_locally(ue, 0.0, home.verify_key)
            ues.append(ue)
        assert len(sat.exposed_states()) == 3
        sat.release_session(str(ues[0].supi))
        assert len(sat.exposed_states()) == 2
        for ue in ues[1:]:
            sat.release_session(str(ue.supi))
        assert sat.exposed_states() == []
