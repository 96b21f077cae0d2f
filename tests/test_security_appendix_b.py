"""Appendix B security analysis, claim by claim.

The paper's security argument is a checklist; each test class below
verifies one bullet against the real implementation: authenticity,
authorization, confidentiality, state integrity, man-in-the-middle,
replay, and UE-side state manipulation.
"""

import dataclasses

import pytest

from repro.core import FallbackRequired, SpaceCoreSatellite, SpaceCoreHome
from repro.crypto import (
    Initiator,
    KeyAgreementError,
    Responder,
    decrypt,
    generate_keypair,
    issue_certificate,
    keygen,
)
from repro.crypto.abe import AbeDecryptionError
from repro.fiveg import SessionState


@pytest.fixture()
def deployment():
    home = SpaceCoreHome()
    creds = home.enroll_satellite("sat-1")
    satellite = SpaceCoreSatellite("sat-1", creds)
    ue = home.provision_subscriber(1)
    home.register(ue, (1, 1), (1, 1), 0.0)
    return home, satellite, ue


class TestAuthenticity:
    """Mutual authentication in C1 and Algorithm 2."""

    def test_satellite_proves_home_authorization(self, deployment):
        home, satellite, ue = deployment
        served = satellite.establish_session_locally(ue, 0.0,
                                                     home.verify_key)
        assert served.session_key

    def test_fake_satellite_rejected_by_ue(self, deployment):
        """A 3rd-party satellite with a self-signed cert fails."""
        home, _, ue = deployment
        rogue_sk, rogue_vk = generate_keypair()
        rogue_cert = issue_certificate("evil-home", rogue_sk,
                                       "sat-evil", rogue_vk)
        ue_side = Initiator(home.verify_key)
        rogue = Responder(rogue_cert, rogue_sk)
        reply, _ = rogue.respond(ue_side.hello)
        with pytest.raises(KeyAgreementError):
            ue_side.finish(reply)

    def test_hijacked_satellite_invalidated(self, deployment):
        """"The home network detects it and invalidates its
        authenticity by updating the access structure A."""
        home, satellite, ue = deployment
        home.revoke_satellite("sat-1")
        fresh = home.provision_subscriber(2)
        home.register(fresh, (1, 1), (1, 1), 0.0)
        with pytest.raises(FallbackRequired):
            satellite.establish_session_locally(fresh, 0.0,
                                                home.verify_key)


class TestAuthorization:
    """Attribute-based access control over the delegated states."""

    def test_policy_gates_on_attributes(self, deployment):
        home, _, ue = deployment
        weak_key = keygen(home.core.abe_master,
                          ["role:satellite", "cap:qos"])  # no epoch
        with pytest.raises(AbeDecryptionError):
            decrypt(weak_key, ue.replica.ciphertext)

    def test_ue_authorized_for_own_states_only(self, deployment):
        home, _, ue = deployment
        other = home.provision_subscriber(3)
        home.register(other, (1, 1), (1, 1), 0.0)
        own_key = keygen(home.core.abe_master,
                         ("role:ue", f"supi:{ue.supi}"))
        assert decrypt(own_key, ue.replica.ciphertext)
        with pytest.raises(AbeDecryptionError):
            decrypt(own_key, other.replica.ciphertext)


class TestConfidentiality:
    """Per-session keys, refreshed every establishment."""

    def test_key_rotates_per_establishment(self, deployment):
        home, satellite, ue = deployment
        k1 = satellite.establish_session_locally(
            ue, 0.0, home.verify_key).session_key
        satellite.release_session(str(ue.supi))
        k2 = satellite.establish_session_locally(
            ue, 1.0, home.verify_key).session_key
        assert k1 != k2

    def test_passive_listener_cannot_read_replica(self, deployment):
        """The replica on the air is ABE ciphertext: without an
        authorized key the payload is opaque."""
        home, _, ue = deployment
        # The serialized S1-S5 bundle never appears in the payload.
        assert b"ip_address" not in ue.replica.ciphertext.payload


class TestStateIntegrity:
    """"Without the home network's key pair, neither the UE nor
    satellite can fake or modify the states."""

    def test_payload_tamper_detected(self, deployment):
        home, satellite, ue = deployment
        real = ue.replica
        flipped = bytes([real.ciphertext.payload[0] ^ 0x01]) + \
            real.ciphertext.payload[1:]
        ue.replica = dataclasses.replace(
            real, ciphertext=dataclasses.replace(real.ciphertext,
                                                 payload=flipped))
        with pytest.raises(FallbackRequired):
            satellite.establish_session_locally(ue, 0.0,
                                                home.verify_key)

    def test_signature_substitution_detected(self, deployment):
        """A forged signature from a non-home key is rejected."""
        home, satellite, ue = deployment
        mallory_sk, _ = generate_keypair()
        forged = mallory_sk.sign(b"whatever")
        ue.replica = dataclasses.replace(ue.replica, signature=forged)
        with pytest.raises(FallbackRequired):
            satellite.establish_session_locally(ue, 0.0,
                                                home.verify_key)


class TestReplayAndFreshness:
    def test_ttl_expiry_forces_home_refresh(self, deployment):
        """"On TTL expiry, the edge satellite will update states from
        the terrestrial home instead of using UE-side states."""
        home, satellite, ue = deployment
        long_after = ue.replica.issued_at + 10 * 86400.0
        with pytest.raises(FallbackRequired):
            satellite.establish_session_locally(ue, long_after,
                                                home.verify_key)

    def test_version_downgrade_refused_by_ue(self, deployment):
        home, _, ue = deployment
        from repro.fiveg.procedures import build_state_bundle
        context = home.core.amf.context(ue.supi)
        session = home.core.smf._sessions[context.session_ids[0]]
        bundle = build_state_bundle(session, context, (1, 1))
        old = ue.replica
        home.apply_usage_report(ue, bundle, 2000)
        with pytest.raises(ValueError):
            ue.store_replica(old)

    def test_replayed_hello_yields_unlinkable_keys(self, deployment):
        home, satellite, ue = deployment
        creds = satellite.credentials
        responder = Responder(creds.certificate, creds.signing_key)
        initiator = Initiator(home.verify_key)
        _, s1 = responder.respond(initiator.hello)
        _, s2 = responder.respond(initiator.hello)  # replay X
        assert s1.key != s2.key


class TestUeManipulation:
    """"Any illegal local state manipulations will thus be detected."""

    def test_ue_cannot_upgrade_its_own_qos(self, deployment):
        """A selfish UE re-encrypting a modified bundle fails: it has
        no authority key, so its forgery cannot carry a valid home
        signature."""
        home, satellite, ue = deployment
        own_key = keygen(home.core.abe_master,
                         ("role:ue", f"supi:{ue.supi}"))
        blob = decrypt(own_key, ue.replica.ciphertext)
        state = SessionState.from_bytes(blob)
        upgraded = dataclasses.replace(
            state, qos=dataclasses.replace(
                state.qos, max_bitrate_down_kbps=10_000_000))
        # The UE cannot produce a home signature for the new bytes;
        # the best it can do is reuse the old signature.
        from repro.crypto import abe as abe_module
        _, fake_master = abe_module.setup()
        forged_ct = abe_module.encrypt(fake_master, upgraded.to_bytes(),
                                       home.state_policy(str(ue.supi)))
        ue.replica = dataclasses.replace(ue.replica,
                                         ciphertext=forged_ct)
        with pytest.raises(FallbackRequired):
            satellite.establish_session_locally(ue, 0.0,
                                                home.verify_key)

    def test_detection_falls_back_to_home_procedures(self, deployment):
        """Fallbacks are counted, mirroring the roll-back-to-legacy
        guarantee (same security as legacy 5G)."""
        home, satellite, ue = deployment
        before = satellite.fallbacks
        ue.replica = dataclasses.replace(
            ue.replica,
            ciphertext=dataclasses.replace(
                ue.replica.ciphertext,
                payload=b"\x00" * len(ue.replica.ciphertext.payload)))
        with pytest.raises(FallbackRequired):
            satellite.establish_session_locally(ue, 0.0,
                                                home.verify_key)
        assert satellite.fallbacks == before + 1
