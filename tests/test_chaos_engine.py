"""Tests for the event-driven chaos engine (scheduled fault injection).

The contract under test is *determinism*: the same (scenario, seed)
pair must produce a bit-identical fault event list, controller log,
and packet-loss pattern on every run.  CI runs this module under
several CHAOS_SEED values, so nothing below may depend on a particular
seed's draw -- only on seed-stable invariants.
"""

import math
import os

import pytest

from repro.faults import (
    ChaosController,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    JammingAttack,
)
from repro.faults.failures import satellite_decay_series
from repro.orbits import IdealPropagator, starlink
from repro.sim import Simulator
from repro.topology import GridTopology
from repro.topology.routing import DijkstraRouter

#: CI sweeps this over several values; the assertions must hold for all.
SEED = int(os.environ.get("CHAOS_SEED", "0"))

BEIJING = (math.radians(39.9), math.radians(116.4))


@pytest.fixture()
def topology():
    return GridTopology(IdealPropagator(starlink()), [])


def _decay_schedule(seed):
    return FaultSchedule().add_satellite_decay(
        range(200), horizon_s=3600.0, acceleration=2.0e5,
        repair_delay_s=600.0, seed=seed)


class TestFaultSchedule:
    def test_decay_is_seed_reproducible(self):
        a = _decay_schedule(SEED).events()
        b = _decay_schedule(SEED).events()
        assert [e.key() for e in a] == [e.key() for e in b]
        assert len(a) > 0

    def test_different_seeds_draw_different_times(self):
        a = _decay_schedule(SEED).events()
        b = _decay_schedule(SEED + 1).events()
        assert [e.key() for e in a] != [e.key() for e in b]

    def test_decay_respects_horizon(self):
        for event in _decay_schedule(SEED).events():
            assert 0.0 <= event.time <= 3600.0

    def test_repair_follows_failure(self):
        down_at = {}
        for event in _decay_schedule(SEED).events():
            if event.kind is FaultKind.SAT_FAIL:
                down_at[event.target] = event.time
            elif event.kind is FaultKind.SAT_RECOVER:
                assert event.time == pytest.approx(
                    down_at[event.target] + 600.0)

    def test_zero_hazard_schedules_nothing(self):
        schedule = FaultSchedule().add_satellite_decay(
            range(100), horizon_s=3600.0, monthly_hazard=0.0, seed=SEED)
        assert len(schedule) == 0

    def test_link_bursts_pair_up_and_close(self):
        links = [(0, 1), (4, 5), (100, 101)]
        schedule = FaultSchedule().add_link_bursts(
            links, horizon_s=5000.0, step_s=5.0, p_good_to_bad=0.05,
            seed=SEED)
        open_links = set()
        for event in schedule.events():
            if event.kind is FaultKind.ISL_FAIL:
                assert event.target not in open_links
                open_links.add(event.target)
            elif event.kind is FaultKind.ISL_RECOVER:
                open_links.discard(event.target)
        assert not open_links, "an outage leaked past the horizon"

    def test_link_bursts_reproducible_per_link(self):
        def make():
            return FaultSchedule().add_link_bursts(
                [(7, 8)], horizon_s=8000.0, step_s=5.0,
                p_good_to_bad=0.05, seed=SEED).events()
        assert [e.key() for e in make()] == [e.key() for e in make()]

    def test_jamming_window_events(self):
        attack = JammingAttack(*BEIJING, radius_km=1000.0)
        events = FaultSchedule().add_jamming_window(
            attack, 100.0, 400.0).events()
        assert [e.kind for e in events] == [FaultKind.JAM_START,
                                            FaultKind.JAM_STOP]
        assert events[0].attack is attack
        assert events[0].key()[2] == events[1].key()[2]

    def test_events_sorted_by_time(self):
        schedule = _decay_schedule(SEED).add_jamming_window(
            JammingAttack(*BEIJING), 10.0, 20.0)
        times = [e.time for e in schedule.events()]
        assert times == sorted(times)

    @pytest.mark.parametrize("bad_call", [
        lambda s: s.add(FaultEvent(-1.0, FaultKind.SAT_FAIL, (0,))),
        lambda s: s.add_satellite_decay([0], horizon_s=-1.0),
        lambda s: s.add_satellite_decay([0], 10.0, acceleration=0.0),
        lambda s: s.add_satellite_decay([0], 10.0, monthly_hazard=1.5),
        lambda s: s.add_satellite_decay([0], 10.0, monthly_hazard=-0.1),
        lambda s: s.add_link_bursts([(0, 1)], horizon_s=-5.0),
        lambda s: s.add_link_bursts([(0, 1)], 10.0, step_s=0.0),
        lambda s: s.add_jamming_window(JammingAttack(0, 0), -1.0, 5.0),
        lambda s: s.add_jamming_window(JammingAttack(0, 0), 9.0, 5.0),
    ])
    def test_invalid_parameters_rejected(self, bad_call):
        with pytest.raises(ValueError):
            bad_call(FaultSchedule())


class TestChaosController:
    def test_applies_events_and_logs(self, topology):
        sim = Simulator()
        controller = ChaosController(sim, topology)
        schedule = (FaultSchedule()
                    .add(FaultEvent(1.0, FaultKind.SAT_FAIL, (42,)))
                    .add(FaultEvent(2.0, FaultKind.ISL_FAIL, (0, 1)))
                    .add(FaultEvent(3.0, FaultKind.SAT_RECOVER, (42,))))
        assert controller.arm(schedule) == 3
        sim.run()
        assert topology.is_up(42)
        assert not topology.isl_up(0, 1)
        assert controller.log_keys() == [e.key()
                                         for e in schedule.events()]

    def test_fault_epoch_advances_per_applied_event(self, topology):
        sim = Simulator()
        controller = ChaosController(sim, topology)
        before = topology.fault_epoch
        controller.arm(FaultSchedule()
                       .add(FaultEvent(1.0, FaultKind.SAT_FAIL, (5,)))
                       .add(FaultEvent(2.0, FaultKind.SAT_FAIL, (6,))))
        sim.run()
        assert topology.fault_epoch == before + 2

    def test_subscribers_see_every_event_in_order(self, topology):
        sim = Simulator()
        controller = ChaosController(sim, topology)
        seen = []
        controller.subscribe(lambda e: seen.append(e.key()))
        controller.arm(_decay_schedule(SEED))
        sim.run()
        assert seen == controller.log_keys()

    def test_seeded_run_is_bit_reproducible(self, topology):
        def run_once():
            sim = Simulator()
            controller = ChaosController(
                sim, GridTopology(topology.propagator, []))
            controller.arm(_decay_schedule(SEED).add_jamming_window(
                JammingAttack(*BEIJING, radius_km=800.0), 50.0, 900.0))
            sim.run()
            return controller.log_keys()

        assert run_once() == run_once()

    def test_jamming_active_tracks_open_windows(self, topology):
        sim = Simulator()
        controller = ChaosController(sim, topology)
        controller.arm(FaultSchedule().add_jamming_window(
            JammingAttack(*BEIJING, radius_km=500.0), 10.0, 20.0))
        sim.run(until=15.0)
        assert controller.jamming_active()
        sim.run()
        assert not controller.jamming_active()


class TestIdempotentTopologyFaults:
    def test_double_fail_bumps_epoch_once(self, topology):
        before = topology.fault_epoch
        topology.fail_satellite(3)
        topology.fail_satellite(3)
        assert topology.fault_epoch == before + 1

    def test_recover_of_healthy_satellite_is_noop(self, topology):
        before = topology.fault_epoch
        topology.recover_satellite(3)
        assert topology.fault_epoch == before

    def test_isl_fail_recover_idempotent(self, topology):
        before = topology.fault_epoch
        topology.fail_isl(0, 1)
        topology.fail_isl(1, 0)          # same undirected link
        topology.recover_isl(0, 1)
        topology.recover_isl(0, 1)
        assert topology.fault_epoch == before + 2
        assert topology.isl_up(0, 1)


class TestJammingIdempotency:
    """Regression: repeated apply/lift cycles must keep the epoch
    monotone and never leave the DijkstraRouter serving a stale route.
    """

    def test_repeated_cycles_monotone_epoch_and_fresh_routes(
            self, topology):
        attack = JammingAttack(*BEIJING, radius_km=1000.0)
        router = DijkstraRouter(topology)
        sat = attack.affected_satellites(topology, 0.0)[0]
        neighbor = next(iter(topology.isl_neighbors(sat)))
        baseline = router.route(sat, neighbor, 0.0)
        assert baseline.path == [sat, neighbor]
        epochs = [topology.fault_epoch]
        for _ in range(3):
            assert attack.apply(topology, 0.0) > 0
            epochs.append(topology.fault_epoch)
            assert not topology.isl_up(sat, neighbor)
            # The router holds no liveness of its own: the post-jam
            # route must avoid the downed link, never be served stale.
            jammed = router.route(sat, neighbor, 0.0)
            assert jammed.path != [sat, neighbor]
            assert not jammed.delivered or jammed.delay_s > baseline.delay_s
            attack.lift(topology, 0.0)
            epochs.append(topology.fault_epoch)
            assert topology.isl_up(sat, neighbor)
            assert router.route(sat, neighbor, 0.0) == baseline
        assert epochs == sorted(epochs)

    def test_double_apply_downs_nothing_new(self, topology):
        attack = JammingAttack(*BEIJING, radius_km=1000.0)
        attack.apply(topology, 0.0)
        epoch = topology.fault_epoch
        attack.apply(topology, 0.0)
        assert topology.fault_epoch == epoch

    def test_lift_spares_failures_from_other_sources(self, topology):
        attack = JammingAttack(*BEIJING, radius_km=1000.0)
        sat = attack.affected_satellites(topology, 0.0)[0]
        neighbor = next(iter(topology.isl_neighbors(sat)))
        topology.fail_isl(sat, neighbor)    # decay, not jamming
        attack.apply(topology, 0.0)
        attack.lift(topology, 0.0)
        assert not topology.isl_up(sat, neighbor)

    def test_double_lift_is_noop(self, topology):
        attack = JammingAttack(*BEIJING, radius_km=1000.0)
        attack.apply(topology, 0.0)
        attack.lift(topology, 0.0)
        epoch = topology.fault_epoch
        attack.lift(topology, 0.0)
        assert topology.fault_epoch == epoch


class TestFailuresValidation:
    def test_default_hazard_used_when_none(self):
        series = satellite_decay_series(1000, months=24, seed=SEED)
        assert len(series) == 24
        assert series[-1].accumulated > 0

    def test_explicit_hazard_reproducible(self):
        def run():
            return [p.accumulated for p in
                    satellite_decay_series(500, 12, monthly_hazard=0.01,
                                           seed=SEED)]
        assert run() == run()

    @pytest.mark.parametrize("kwargs", [
        dict(fleet_size=-1, months=12),
        dict(fleet_size=10, months=-1),
        dict(fleet_size=10, months=12, monthly_hazard=-0.01),
        dict(fleet_size=10, months=12, monthly_hazard=1.01),
    ])
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            satellite_decay_series(**kwargs)


class TestArmIdempotency:
    """Regression: overlapping/duplicate schedules arm each distinct
    fault exactly once, and re-arming reports zero new events.
    """

    def test_rearming_same_schedule_is_noop(self, topology):
        sim = Simulator()
        controller = ChaosController(sim, topology)
        schedule = _decay_schedule(SEED)
        first = controller.arm(schedule)
        assert first == len(schedule.events())
        assert controller.arm(schedule) == 0
        assert controller.events_armed == first
        sim.run()
        # Each event fired exactly once despite the double arm.
        assert controller.log_keys() == [e.key()
                                         for e in schedule.events()]

    def test_overlapping_schedules_dedupe_by_key(self, topology):
        sim = Simulator()
        controller = ChaosController(sim, topology)
        shared = FaultEvent(5.0, FaultKind.SAT_FAIL, (7,))
        a = FaultSchedule().add(shared).add(
            FaultEvent(6.0, FaultKind.SAT_RECOVER, (7,)))
        b = FaultSchedule().add(shared).add(
            FaultEvent(8.0, FaultKind.SAT_FAIL, (9,)))
        assert controller.arm(a) == 2
        assert controller.arm(b) == 1   # only the (8.0, fail, 9) is new
        sim.run()
        assert len(controller.log) == 3

    def test_distinct_compute_factors_are_distinct_events(self, topology):
        sim = Simulator()
        controller = ChaosController(sim, topology)
        a = FaultSchedule().add(FaultEvent(
            1.0, FaultKind.COMPUTE_DEGRADE, (3,), factor=0.5))
        b = FaultSchedule().add(FaultEvent(
            1.0, FaultKind.COMPUTE_DEGRADE, (3,), factor=0.25))
        assert controller.arm(a) == 1
        assert controller.arm(b) == 1   # different factor, different key
        assert controller.arm(b) == 0

    def test_tie_order_deterministic_for_same_arm_sequence(
            self, topology):
        def run():
            sim = Simulator()
            controller = ChaosController(
                sim, GridTopology(topology.propagator, []))
            for sat in (11, 3, 7):
                controller.arm(FaultSchedule().add(
                    FaultEvent(2.0, FaultKind.SAT_FAIL, (sat,))))
            sim.run()
            return controller.log_keys()

        assert run() == run()

    def test_batch_arm_fires_ties_in_sorted_order(self, topology):
        sim = Simulator()
        controller = ChaosController(sim, topology)
        schedule = FaultSchedule()
        for sat in (11, 3, 7):
            schedule.add(FaultEvent(2.0, FaultKind.SAT_FAIL, (sat,)))
        controller.arm(schedule)
        sim.run()
        assert [key[2] for key in controller.log_keys()] == [
            (3,), (7,), (11,)]


def _live_stations(topology):
    return {index for index, _ in topology.live_ground_stations()}


class TestGroundStationFaults:
    @pytest.fixture()
    def gs_topology(self):
        from repro.orbits import default_ground_stations
        return GridTopology(IdealPropagator(starlink()),
                            default_ground_stations(6))

    def test_outage_window_downs_and_restores(self, gs_topology):
        sim = Simulator()
        controller = ChaosController(sim, gs_topology)
        controller.arm(FaultSchedule().add_ground_station_outage(
            [0, 2], 10.0, 20.0))
        sim.run(until=15.0)
        assert _live_stations(gs_topology) == {1, 3, 4, 5}
        sim.run()
        assert _live_stations(gs_topology) == set(range(6))

    def test_gs_failure_is_idempotent_and_epoch_bumps_once(
            self, gs_topology):
        before = gs_topology.fault_epoch
        gs_topology.fail_ground_station(1)
        gs_topology.fail_ground_station(1)
        assert gs_topology.fault_epoch == before + 1
        gs_topology.recover_ground_station(1)
        gs_topology.recover_ground_station(1)
        assert gs_topology.fault_epoch == before + 2

    @pytest.mark.parametrize("method", ["fail_ground_station",
                                        "recover_ground_station"])
    @pytest.mark.parametrize("station", [99, -1, 1.5, True])
    def test_unknown_station_index_rejected(self, gs_topology, method,
                                            station):
        """Only a plain int in ``[0, stations)`` is a station: no fault
        epoch bump, no station downed, for anything else."""
        before = gs_topology.fault_epoch
        with pytest.raises(ValueError):
            getattr(gs_topology, method)(station)
        assert gs_topology.fault_epoch == before
        assert _live_stations(gs_topology) == set(range(6))

    def test_snapshot_graph_drops_dead_gateways(self, gs_topology):
        gs_topology.fail_ground_station(0)
        name = gs_topology.ground_stations[0].name
        graph = gs_topology.snapshot_graph(0.0, include_ground=True)
        assert name not in graph

    def test_load_to_gateways_skips_dead_gateways(self, gs_topology):
        """Demand must not detour through a gateway that is offline:
        with every station but one failed, the load is the load of a
        topology that only ever had that one station."""
        from repro.topology import gravity_demand, load_to_gateways
        demands = gravity_demand(gs_topology, 0.0, top_satellites=6)
        for station in range(5):
            gs_topology.fail_ground_station(station)
        lone = GridTopology(gs_topology.propagator,
                            gs_topology.ground_stations[5:])
        load = load_to_gateways(gs_topology, 0.0, demands)
        want = load_to_gateways(lone, 0.0, demands)
        assert load.link_load == want.link_load
        assert load.satellite_load == want.satellite_load
        gs_topology.fail_ground_station(5)
        with pytest.raises(RuntimeError):
            load_to_gateways(gs_topology, 0.0, demands)


class TestComputeDegradation:
    def test_window_tracks_live_factor(self, topology):
        sim = Simulator()
        controller = ChaosController(sim, topology)
        controller.arm(FaultSchedule().add_compute_degradation(
            [4, 5], 10.0, 30.0, factor=0.5))
        assert controller.min_compute_factor() == 1.0
        sim.run(until=20.0)
        assert controller.min_compute_factor() == 0.5
        sim.run()
        assert controller.min_compute_factor() == 1.0

    def test_factor_at_replays_history_after_run(self, topology):
        sim = Simulator()
        controller = ChaosController(sim, topology)
        controller.arm(FaultSchedule().add_compute_degradation(
            [4], 10.0, 30.0, factor=0.25))
        sim.run()
        assert controller.compute_factor_at(5.0) == 1.0
        assert controller.compute_factor_at(15.0) == 0.25
        assert controller.compute_factor_at(35.0) == 1.0

    def test_worst_factor_wins_under_overlap(self, topology):
        sim = Simulator()
        controller = ChaosController(sim, topology)
        controller.arm(FaultSchedule()
                       .add_compute_degradation([1], 0.0, 100.0,
                                                factor=0.5)
                       .add_compute_degradation([2], 10.0, 50.0,
                                                factor=0.2))
        sim.run(until=20.0)
        assert controller.min_compute_factor() == 0.2
        sim.run(until=60.0)
        assert controller.min_compute_factor() == 0.5

    @pytest.mark.parametrize("factor", [0.0, 1.0, 1.5, -0.1])
    def test_invalid_factor_rejected(self, factor):
        with pytest.raises(ValueError):
            FaultSchedule().add_compute_degradation([0], 0.0, 10.0,
                                                    factor=factor)

    def test_derated_platform_scales_cost(self):
        from repro.hardware.model import RASPBERRY_PI_4
        half = RASPBERRY_PI_4.derated(0.5)
        assert half.base_cost_us == pytest.approx(
            2.0 * RASPBERRY_PI_4.base_cost_us)
        assert RASPBERRY_PI_4.derated(1.0) is RASPBERRY_PI_4
        with pytest.raises(ValueError):
            RASPBERRY_PI_4.derated(0.0)
