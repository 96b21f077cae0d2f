"""Tests for failure recovery."""

import pytest

from repro.core import SpaceCoreSystem
from repro.orbits import starlink


class TestFailureRecovery:
    @pytest.fixture()
    def system_with_session(self):
        system = SpaceCoreSystem(starlink())
        ue = system.provision_ue(39.9, 116.4)
        system.register(ue)
        system.establish_session(ue, t=0.0)
        return system, ue

    def test_recovery_after_serving_satellite_dies(self,
                                                   system_with_session):
        system, ue = system_with_session
        victim = system._ue_serving_sat[str(ue.supi)]
        system.topology.fail_satellite(victim)
        new_sat = system.recover_from_satellite_failure(ue, t=0.0)
        assert new_sat is not None and new_sat != victim
        assert system.satellite(new_sat).served_session(
            str(ue.supi)) is not None
        assert system.send_uplink(ue, 800, 0.0)

    def test_recovery_needs_no_state_from_dead_node(self,
                                                    system_with_session):
        """The dead satellite's ephemeral state is simply lost; the
        replica re-creates everything on the new node."""
        system, ue = system_with_session
        victim = system._ue_serving_sat[str(ue.supi)]
        system.satellite(victim)  # instantiate the doomed node
        system.topology.fail_satellite(victim)
        new_sat = system.recover_from_satellite_failure(ue, t=0.0)
        # The dead node still holds its stale entry (it is dead, not
        # cleaned up); the new node serves independently.
        assert new_sat != victim
        assert system.satellite(new_sat).served_count == 1

    def test_recovery_fails_politely_without_coverage(self):
        system = SpaceCoreSystem(starlink())
        ue = system.provision_ue(39.9, 116.4)
        system.register(ue)
        system.establish_session(ue, t=0.0)
        # Kill every visible satellite.
        from repro.orbits import visible_satellites
        for sat in visible_satellites(system.propagator, 0.0, ue.lat,
                                      ue.lon):
            system.topology.fail_satellite(int(sat))
        assert system.recover_from_satellite_failure(ue, 0.0) is None
        assert not ue.connected

    def test_recovered_session_gets_fresh_key(self, system_with_session):
        """Key K rotates on the new satellite (forward secrecy)."""
        system, ue = system_with_session
        victim = system._ue_serving_sat[str(ue.supi)]
        old_key = system.satellite(victim).served_session(
            str(ue.supi)).session_key
        system.topology.fail_satellite(victim)
        new_sat = system.recover_from_satellite_failure(ue, 0.0)
        new_key = system.satellite(new_sat).served_session(
            str(ue.supi)).session_key
        assert new_key != old_key
