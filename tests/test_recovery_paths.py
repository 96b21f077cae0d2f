"""Tests for procedure-level recovery under churn.

Covers the retry discipline of :class:`ResilientSpaceCore`, the
edge cases of ``SpaceCoreSystem.recover_from_satellite_failure``,
replica installs when the *source* satellite of a handover is dead,
and the packet layer's bounded reroute degradation.
"""

import math

import pytest

from repro.constants import (
    NAS_MAX_ATTEMPTS,
    NAS_RETRY_BACKOFF_BASE_S,
    NAS_RETRY_BACKOFF_CAP_S,
    NAS_T3517_S,
    RLF_DETECTION_S,
)
from repro.core import ResilientSpaceCore, SpaceCoreSystem
from repro.experiments.chaos_availability import (
    ChaosScenario,
    _StatefulBaseline,
)
from repro.faults import (
    ChaosController,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from repro.orbits import IdealPropagator, starlink
from repro.sim import PacketSimulation, Simulator
from repro.topology import GridTopology

BEIJING_DEG = (39.9, 116.4)


@pytest.fixture()
def system():
    return SpaceCoreSystem(starlink())


@pytest.fixture()
def attached(system):
    ue = system.provision_ue(*BEIJING_DEG)
    system.register(ue)
    system.establish_session(ue, t=0.0)
    return system, ue


def _coverage(system, ue, t=0.0):
    """Every satellite index currently covering the UE."""
    from repro.orbits.snapshot import snapshot_for
    snap = snapshot_for(system.propagator, t)
    return [int(s) for s in snap.visible_satellites(ue.lat, ue.lon)]


class TestRecoverFromSatelliteFailure:
    def test_skips_to_later_live_candidate(self, attached):
        system, ue = attached
        candidates = _coverage(system, ue)
        assert len(candidates) >= 3
        # Kill the serving satellite *and* the next-nearest survivors;
        # recovery must walk the candidate list to a live one.
        for sat in candidates[:-1]:
            system.topology.fail_satellite(sat)
        new_sat = system.recover_from_satellite_failure(ue, t=0.0)
        assert new_sat == candidates[-1]
        assert system.satellite(new_sat).served_session(
            str(ue.supi)) is not None

    def test_none_when_all_coverage_dead(self, attached):
        system, ue = attached
        for sat in _coverage(system, ue):
            system.topology.fail_satellite(sat)
        assert system.recover_from_satellite_failure(ue, t=0.0) is None
        assert not ue.connected

    def test_none_without_replica(self, system):
        # Never registered: no replica to piggyback, every candidate
        # raises FallbackRequired, and the walk ends empty-handed.
        ue = system.provision_ue(*BEIJING_DEG)
        assert system.recover_from_satellite_failure(ue, t=0.0) is None

    def test_skips_revoked_satellite(self, attached):
        system, ue = attached
        candidates = _coverage(system, ue)
        system.topology.fail_satellite(candidates[0])
        system.home.revoke_satellite(f"sat-{candidates[1]}")
        new_sat = system.recover_from_satellite_failure(ue, t=0.0)
        assert new_sat is not None
        assert new_sat not in (candidates[0], candidates[1])

    def test_reattach_needs_no_state_from_corpse(self, attached):
        system, ue = attached
        victim = system._ue_serving_sat[str(ue.supi)]
        served_before = system.satellite(victim).served_count
        system.topology.fail_satellite(victim)
        new_sat = system.recover_from_satellite_failure(ue, t=0.0)
        assert new_sat != victim
        # The corpse keeps its stale entry; the replica alone rebuilt
        # the session on the survivor.
        assert system.satellite(victim).served_count == served_before
        assert system.send_uplink(ue, 800, 0.0)


class TestHandoverFromDeadSource:
    def test_replica_install_succeeds_with_dead_from_sat(self, attached):
        system, ue = attached
        old_index = system._ue_serving_sat[str(ue.supi)]
        old_sat = system.satellite(old_index)
        system.topology.fail_satellite(old_index)
        target = system.satellite(_coverage(system, ue)[1])
        served = target.handover_in(ue, old_sat, now=1.0)
        # The replica is the state: nothing was pulled from the corpse,
        # and its ephemeral entry was still released.
        assert served.supi == str(ue.supi)
        assert target.served_session(str(ue.supi)) is not None
        assert old_sat.served_session(str(ue.supi)) is None

    def test_system_handover_picks_live_target(self, attached):
        system, ue = attached
        geometric = system.serving_satellite_of(ue, t=0.0)
        system.topology.fail_satellite(geometric)
        new_sat = system.handover(ue, t=0.0)
        if new_sat is not None:
            assert system.topology.is_up(new_sat)
            assert new_sat != geometric


class TestResilientRetries:
    def test_clean_register_and_establish(self, system):
        resilient = ResilientSpaceCore(system)
        ue = system.provision_ue(*BEIJING_DEG)
        reg = resilient.register(ue, t=0.0)
        est = resilient.establish_session(ue, t=0.0)
        for outcome in (reg, est):
            assert outcome.completed and not outcome.abandoned
            assert outcome.attempts == 1
            assert outcome.total_delay_s == 0.0
        assert resilient.session_alive(ue)

    def test_recovery_outcome_recorded(self, attached):
        system, ue = attached
        resilient = ResilientSpaceCore(system)
        system.topology.fail_satellite(system._ue_serving_sat[str(ue.supi)])
        outcome = resilient.recover(ue, t=5.0)
        assert outcome.procedure == "recovery"
        assert outcome.completed and outcome.attempts == 1
        assert resilient.session_alive(ue)

    def test_abandonment_accumulates_timer_and_backoff(self, attached):
        system, ue = attached
        # Kill everything that covers the UE at any point in the retry
        # window (the constellation keeps moving between attempts).
        doomed = set()
        t = 0.0
        while t <= 150.0:
            doomed.update(_coverage(system, ue, t))
            t += 5.0
        for sat in doomed:
            system.topology.fail_satellite(sat)
        resilient = ResilientSpaceCore(system)
        outcome = resilient.recover(ue, t=0.0)
        assert outcome.abandoned and not outcome.completed
        assert outcome.attempts == NAS_MAX_ATTEMPTS
        expected = sum(
            NAS_T3517_S + min(NAS_RETRY_BACKOFF_BASE_S * 2.0 ** i,
                              NAS_RETRY_BACKOFF_CAP_S)
            for i in range(NAS_MAX_ATTEMPTS))
        assert outcome.total_delay_s == pytest.approx(expected)
        assert str(ue.supi) in resilient.lost_sessions
        assert sum(o.abandoned for o in resilient.outcomes) == 1

    def test_chaos_fault_triggers_scheduled_recovery(self, attached):
        system, ue = attached
        victim = system._ue_serving_sat[str(ue.supi)]
        sim = Simulator()
        controller = ChaosController(sim, system.topology)
        resilient = ResilientSpaceCore(system)
        resilient.track(ue)
        resilient.attach_chaos(controller)
        controller.arm(FaultSchedule().add(
            FaultEvent(10.0, FaultKind.SAT_FAIL, (victim,))))
        sim.run()
        assert sim.now == pytest.approx(10.0 + RLF_DETECTION_S)
        assert len(resilient.outcomes) == 1
        outcome = resilient.outcomes[0]
        assert outcome.procedure == "recovery"
        assert outcome.started_at == pytest.approx(10.0 + RLF_DETECTION_S)
        assert outcome.completed
        assert resilient.session_alive(ue)

    def test_outcome_keys_reproducible(self, attached):
        system, ue = attached
        resilient = ResilientSpaceCore(system)
        system.topology.fail_satellite(system._ue_serving_sat[str(ue.supi)])
        resilient.recover(ue, t=3.0)
        keys = resilient.outcome_keys()
        assert keys == [o.key() for o in resilient.outcomes]
        assert all(isinstance(k, tuple) for k in keys)


class TestStatefulBaselineUnbound:
    def test_fault_on_established_but_unbound_ue_is_a_loss(self, attached):
        """``establish_all`` without ``bind_ues``: the baseline cannot
        find the victim a new serving satellite, so every NAS attempt
        fails and the session is lost -- it used to raise
        ``AttributeError`` from ``_serving_at``."""
        system, ue = attached
        sim = Simulator()
        controller = ChaosController(sim, system.topology)
        baseline = _StatefulBaseline(system, ChaosScenario(), controller)
        baseline.establish_all([ue], 0.0)
        supi = str(ue.supi)
        victim = baseline.assignments[supi]
        assert victim >= 0
        controller.subscribe(baseline.on_fault)
        controller.arm(FaultSchedule().add(
            FaultEvent(10.0, FaultKind.SAT_FAIL, (victim,))))
        sim.run()
        assert baseline._serving_at(supi, 10.0) == -1
        assert baseline.lost == 1
        assert baseline.alive[supi] is False
        assert supi not in baseline.assignments
        assert baseline.recovery_latencies == []


class TestPacketDegradation:
    DEST = (math.radians(40.7), math.radians(-74.0))  # New York

    @pytest.fixture()
    def topology(self):
        return GridTopology(IdealPropagator(starlink()), [])

    def _src(self, sim):
        from repro.orbits import serving_satellite
        return serving_satellite(sim.topology.propagator, 0.0,
                                 math.radians(39.9),
                                 math.radians(116.4))

    def test_reroute_survives_mid_flight_link_failure(self, topology):
        sim = PacketSimulation(topology, max_reroutes=2)
        src = self._src(sim)
        path = sim.router.route(src, *self.DEST, 0.0).path
        record = sim.send(src, *self.DEST)
        topology.fail_isl(path[2], path[3])
        sim.run()
        assert record.delivered_at_s is not None
        assert record.reroutes >= 1

    def test_default_caps_preserve_drop_semantics(self, topology):
        sim = PacketSimulation(topology)
        src = self._src(sim)
        path = sim.router.route(src, *self.DEST, 0.0).path
        record = sim.send(src, *self.DEST)
        topology.fail_isl(path[2], path[3])
        sim.run()
        assert record.dropped and record.reroutes == 0

    def test_reroute_cap_validated(self, topology):
        with pytest.raises(ValueError):
            PacketSimulation(topology, max_reroutes=-1)
