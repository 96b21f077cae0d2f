"""Scenario test: a day in the life of the system.

One long integration scenario exercising registration, localized
sessions, handovers, failures, jamming, revocation, billing and
downlink delivery against a single live SpaceCoreSystem
-- the kind of sequence a real deployment sees, with invariants
checked at every stage.
"""

import math

import pytest

from repro.core import FallbackRequired, SpaceCoreSystem
from repro.faults import JammingAttack
from repro.orbits import starlink


@pytest.fixture(scope="module")
def world():
    system = SpaceCoreSystem(starlink())
    subscribers = {}
    for name, lat, lon in (("beijing", 39.9, 116.4),
                           ("nairobi", -1.3, 36.8),
                           ("new-york", 40.7, -74.0)):
        ue = system.provision_ue(lat, lon)
        system.register(ue, t=0.0)
        subscribers[name] = ue
    return system, subscribers


class TestDayInTheLife:
    def test_stage1_everyone_registers(self, world):
        system, subs = world
        for ue in subs.values():
            assert ue.replica is not None
            assert ue.ip_address is not None
            assert system.home.core.amf.context(ue.supi) is not None

    def test_stage2_morning_sessions(self, world):
        system, subs = world
        for ue in subs.values():
            served = system.establish_session(ue, t=100.0)
            assert served.session_key
            assert system.send_uplink(ue, 1200, 100.0)

    def test_stage3_cross_continent_traffic(self, world):
        system, subs = world
        src_sat = system.serving_satellite_of(subs["beijing"], 100.0)
        subs["new-york"].connected = False
        result = system.deliver_downlink(src_sat, subs["new-york"],
                                         100.0)
        assert result.route.delivered
        assert result.paged

    def test_stage4_satellite_passes_no_registrations(self, world):
        system, subs = world
        registrations_before = system.home.core.amf.registrations
        for t in (300.0, 500.0, 700.0):
            for ue in subs.values():
                system.handover(ue, t)
        # Passes churned the serving satellites but never reached the
        # home's registration machinery.
        assert (system.home.core.amf.registrations
                == registrations_before)

    def test_stage5_jamming_incident(self, world):
        system, subs = world
        jammer = JammingAttack(math.radians(20.0), math.radians(60.0),
                               radius_km=1000.0)
        affected = jammer.apply(system.topology, 700.0)
        assert affected >= 1
        # Cross-continent delivery still works around the hole.
        src_sat = system.serving_satellite_of(subs["beijing"], 700.0)
        subs["nairobi"].connected = False
        result = system.deliver_downlink(src_sat, subs["nairobi"],
                                         700.0)
        assert result.route.delivered
        jammer.lift(system.topology, 700.0)

    def test_stage6_serving_satellite_dies(self, world):
        system, subs = world
        ue = subs["beijing"]
        if not ue.connected:
            system.establish_session(ue, t=900.0)
        victim = system._ue_serving_sat[str(ue.supi)]
        system.topology.fail_satellite(victim)
        recovered = system.recover_from_satellite_failure(ue, 900.0)
        assert recovered is not None
        assert system.send_uplink(ue, 900, 900.0)
        system.topology.recover_satellite(victim)

    def test_stage7_hijack_and_revocation(self, world):
        system, subs = world
        ue = subs["nairobi"]
        sat_index = system.serving_satellite_of(ue, 1000.0)
        hijacked = system.satellite(sat_index)
        exposure = hijacked.exposed_states()
        # Blast radius: at most the sessions this satellite serves.
        assert len(exposure) <= hijacked.served_count
        system.home.revoke_satellite(f"sat-{sat_index}")
        probe = system.provision_ue(-1.2, 36.9)
        system.register(probe, t=1000.0)
        with pytest.raises(FallbackRequired):
            hijacked.establish_session_locally(probe, 1000.0,
                                               system.home.verify_key)

    def test_stage9_billing_carries_through(self, world):
        system, subs = world
        ue = subs["beijing"]
        supi = str(ue.supi)
        sat = system._ue_serving_sat.get(supi)
        if sat is None:
            system.establish_session(ue, t=1400.0)
            sat = system._ue_serving_sat[supi]
        satellite = system.satellite(sat)
        served = satellite.served_session(supi)
        bytes_up, bytes_down = satellite.usage_report(supi)
        updated = system.home.apply_usage_report(
            ue, served.state, bytes_up, bytes_down, 1400.0)
        assert updated.version > served.state.version
        assert ue.replica.version == updated.version

    def test_stage10_invariants_hold(self, world):
        """Global invariants after the whole day."""
        system, subs = world
        # No satellite holds state for a UE it is not serving.
        for index, satellite in system._satellites.items():
            for session in satellite.exposed_states():
                assert satellite.served_session(session.supi) is not None
        # Every UE's replica verifies against the home.
        for ue in subs.values():
            from repro.crypto import decrypt, keygen
            ue_key = keygen(system.home.core.abe_master,
                            ("role:ue", f"supi:{ue.supi}"))
            blob = decrypt(ue_key, ue.replica.ciphertext)
            assert system.home.verify_key.verify(blob,
                                                 ue.replica.signature)
