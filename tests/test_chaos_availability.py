"""Acceptance tests for the chaos availability experiment.

Pins the two headline properties of ISSUE's tentpole: a seeded chaos
run is bit-reproducible (identical fault log and procedure outcome
records), and SpaceCore's session survival strictly dominates the
stateful baseline under the default churn scenario.
"""

import hashlib
import json
import os
import random
from dataclasses import fields, replace

import networkx as nx
import pytest

from repro.experiments import (
    ChaosScenario,
    chaos_availability,
    run_chaos_availability,
    write_chaos_report,
)
from repro.experiments.chaos_availability import STOCK_CHURN, ChaosSpec
from repro.faults import FaultKind
from repro.topology import GridTopology

SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Compressed scenario for the per-test runs (~0.5 s each); the
#: default-scenario dominance check runs once on the real thing.
SMALL = ChaosScenario(horizon_s=1200.0, sample_interval_s=300.0,
                      n_ues=8, seed=SEED)


@pytest.fixture(scope="module")
def small_result():
    return run_chaos_availability(scenario=SMALL)


class TestBitReproducibility:
    def test_same_seed_same_fault_log_and_outcomes(self, small_result):
        again = run_chaos_availability(scenario=SMALL)
        assert small_result.fault_log == again.fault_log
        assert small_result.spacecore_outcomes == again.spacecore_outcomes
        assert ([(s.t, s.spacecore, s.baseline)
                 for s in small_result.samples]
                == [(s.t, s.spacecore, s.baseline)
                    for s in again.samples])
        assert (small_result.baseline_recovery_latencies
                == again.baseline_recovery_latencies)

    def test_different_seed_different_faults(self, small_result):
        other = run_chaos_availability(
            scenario=ChaosScenario(horizon_s=1200.0,
                                   sample_interval_s=300.0,
                                   n_ues=8, seed=SEED + 1))
        assert small_result.fault_log != other.fault_log


class TestSurvivalCurves:
    def test_faults_actually_fire(self, small_result):
        assert len(small_result.fault_log) > 0

    def test_sessions_all_start_alive(self, small_result):
        first = small_result.samples[0]
        assert first.spacecore == 1.0
        assert first.baseline == 1.0
        assert small_result.n_sessions == SMALL.n_ues

    def test_default_scenario_spacecore_strictly_dominates(self):
        result = run_chaos_availability(scenario=ChaosScenario(seed=SEED))
        assert (result.final_spacecore_survival
                > result.final_baseline_survival)
        assert all(s.spacecore >= s.baseline for s in result.samples)
        assert result.spacecore_lost <= result.baseline_lost

    def test_survival_fractions_bounded(self, small_result):
        for sample in small_result.samples:
            assert 0.0 <= sample.spacecore <= 1.0
            assert 0.0 <= sample.baseline <= 1.0

    def test_spacecore_recoveries_are_fast(self, small_result):
        # Local re-attach: RLF detection plus a four-message exchange,
        # far below any home-routed retry (seconds).
        for latency in small_result.spacecore_recovery_latencies:
            assert latency < 2.0


def _has_path_reachable(topology, sat, t):
    """The frozen reference check: a fresh ``snapshot_graph`` at ``t``,
    every covered gateway's access satellite, one ``nx.has_path`` each
    -- reachability as the baseline computed it before component
    labels and the short-circuiting gateway scan."""
    graph = topology.snapshot_graph(t, include_ground=False)
    if sat < 0 or sat not in graph:
        return False
    sources = {access for _, access
               in topology.gateway_access_satellites(t)}
    return any(nx.has_path(graph, sat, source)
               for source in sources if source in graph)


class _PerAttemptBaseline(chaos_availability._StatefulBaseline):
    """The oracle: the frozen ``has_path`` check at every NAS attempt's
    own time, ignoring the labels ``on_fault`` hands down."""

    def _gateway_reachable(self, sat, t, labels):
        return _has_path_reachable(self.system.topology, sat, t)


#: The fault mix per flavour: the stock churn, a full-horizon jam, the
#: stock churn plus the nearest half of the gateways down mid-run, and
#: no decay process at all (0 = off, so no satellite fails).
HOIST_CASES = {
    "stock": STOCK_CHURN,
    "jammed": replace(STOCK_CHURN, jam_start_s=0.0, jam_stop_s=1800.0),
    "ground-outage": replace(STOCK_CHURN, gs_outage_start_s=300.0,
                             gs_outage_stop_s=1500.0,
                             gs_outage_fraction=0.5),
    "no-decay": replace(STOCK_CHURN, decay_acceleration=0.0),
}
DECAY_CASES = sorted(case for case, chaos in HOIST_CASES.items()
                     if chaos.decay_acceleration > 0)


class TestBaselineGraphHoist:
    """One reachability graph per fault event changes no outcome."""

    @staticmethod
    def _run(monkeypatch, baseline_cls, seed, case):
        """Run one trial; returns (baseline, [(event, had_victims,
        snapshot_graph calls inside on_fault), ...])."""
        made, builds, per_event = [], [0], []
        real_snapshot_graph = GridTopology.snapshot_graph

        def counting_snapshot_graph(self, *args, **kwargs):
            builds[0] += 1
            return real_snapshot_graph(self, *args, **kwargs)

        class Recording(baseline_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

            def on_fault(self, event):
                had_victims = (
                    event.kind is FaultKind.SAT_FAIL
                    and any(sat == event.target[0] and self.alive.get(supi)
                            for supi, sat in self.assignments.items()))
                before = builds[0]
                super().on_fault(event)
                per_event.append((event, had_victims, builds[0] - before))

        monkeypatch.setattr(GridTopology, "snapshot_graph",
                            counting_snapshot_graph)
        monkeypatch.setattr(chaos_availability, "_StatefulBaseline",
                            Recording)
        run_chaos_availability(
            scenario=ChaosScenario(horizon_s=1800.0,
                                   sample_interval_s=300.0, n_ues=16,
                                   seed=seed, chaos=HOIST_CASES[case]))
        (baseline,) = made
        return baseline, per_event

    @pytest.mark.parametrize("case", sorted(HOIST_CASES))
    @pytest.mark.parametrize("seed", [SEED, SEED + 1, SEED + 2])
    def test_outcomes_match_per_attempt_rebuild(self, monkeypatch, seed,
                                                case):
        hoisted, events = self._run(
            monkeypatch, chaos_availability._StatefulBaseline, seed, case)
        monkeypatch.undo()
        oracle, oracle_events = self._run(
            monkeypatch, _PerAttemptBaseline, seed, case)
        assert ([e.key() for e, _, _ in events]
                == [e.key() for e, _, _ in oracle_events])
        assert (any(e.kind is FaultKind.SAT_FAIL for e, _, _ in events)
                == (HOIST_CASES[case].decay_acceleration > 0))
        assert hoisted.recovery_latencies == oracle.recovery_latencies
        assert hoisted.lost == oracle.lost
        assert hoisted.alive == oracle.alive
        assert hoisted.assignments == oracle.assignments

    @pytest.mark.parametrize("case", DECAY_CASES)
    def test_one_graph_per_sat_fail_with_victims(self, monkeypatch, case):
        _, events = self._run(
            monkeypatch, chaos_availability._StatefulBaseline, SEED + 1,
            case)
        assert any(had_victims for _, had_victims, _ in events)
        assert any(not had_victims for _, had_victims, _ in events)
        for event, had_victims, graph_builds in events:
            assert graph_builds == (1 if had_victims else 0), event


def _labelled_baseline():
    """A stand-alone baseline on a fresh Starlink system (no faults)."""
    system = chaos_availability.SpaceCoreSystem(
        chaos_availability.starlink())
    controller = chaos_availability.ChaosController(
        chaos_availability.Simulator(), system.topology)
    return chaos_availability._StatefulBaseline(
        system, ChaosScenario(seed=SEED), controller)


def _labels(topology, t):
    return chaos_availability._component_labels(
        topology.snapshot_graph(t, include_ground=False))


def _isolate(topology, sat):
    """Cut the satellite's four grid ISLs; returns the cut pairs."""
    cuts = [(sat, nbr)
            for nbr in topology.directional_neighbors(sat).values()]
    for pair in cuts:
        topology.fail_isl(*pair)
    return cuts


class TestGatewayReachableOnPartitions:
    """Component labels decide reachability once the mesh splits."""

    T = 250.0

    @pytest.fixture
    def baseline(self):
        return _labelled_baseline()

    @staticmethod
    def _access(topology, t):
        return {sat for _, sat in topology.gateway_access_satellites(t)}

    def _non_access_sat(self, topology):
        access = self._access(topology, self.T)
        return next(sat for sat in range(
            topology.constellation.total_satellites) if sat not in access)

    def test_isolated_satellite_is_unreachable(self, baseline):
        topology = baseline.system.topology
        sat = self._non_access_sat(topology)
        _isolate(topology, sat)
        assert self._access(topology, self.T)
        labels = _labels(topology, self.T)
        assert baseline._gateway_reachable(sat, self.T, labels) is False
        assert _has_path_reachable(topology, sat, self.T) is False

    def test_gateway_component_is_reachable(self, baseline):
        topology = baseline.system.topology
        isolated = self._non_access_sat(topology)
        _isolate(topology, isolated)
        labels = _labels(topology, self.T)
        sat = next(iter(topology.directional_neighbors(isolated).values()))
        assert baseline._gateway_reachable(sat, self.T, labels) is True

    def test_no_serving_satellite_is_unreachable(self, baseline):
        labels = _labels(baseline.system.topology, self.T)
        assert baseline._gateway_reachable(-1, self.T, labels) is False

    def test_failed_satellite_is_unreachable(self, baseline):
        topology = baseline.system.topology
        sat = self._non_access_sat(topology)
        topology.fail_satellite(sat)
        labels = _labels(topology, self.T)
        assert baseline._gateway_reachable(sat, self.T, labels) is False

    def test_all_gateways_down_is_unreachable(self, baseline):
        topology = baseline.system.topology
        for station in range(len(topology.ground_stations)):
            topology.fail_ground_station(station)
        labels = _labels(topology, self.T)
        assert all(not baseline._gateway_reachable(sat, self.T, labels)
                   for sat in range(0, 200, 7))

    def test_matches_has_path_oracle_on_cut_meshes(self, baseline):
        """Seeded ISL cuts that split the mesh: every probe agrees with
        the frozen ``has_path`` check, and some live victim sits in a
        component no covered gateway reaches."""
        topology = baseline.system.topology
        total = topology.constellation.total_satellites
        rng = random.Random(SEED + 26)
        stranded = 0
        cuts = []
        for _ in range(6):
            for pair in cuts:
                topology.recover_isl(*pair)
            islands = rng.sample(range(total), 3)
            cuts = [pair for sat in islands
                    for pair in _isolate(topology, sat)]
            for _ in range(40):
                sat = rng.randrange(total)
                nbr = rng.choice(list(
                    topology.directional_neighbors(sat).values()))
                topology.fail_isl(sat, nbr)
                cuts.append((sat, nbr))
            t = rng.uniform(0.0, 3600.0)
            graph = topology.snapshot_graph(t, include_ground=False)
            assert nx.number_connected_components(graph) >= 2
            labels = chaos_availability._component_labels(graph)
            probes = islands + rng.sample(range(total), 12) + [-1]
            for sat in probes:
                for now in (t, t + 15.0):
                    expected = _has_path_reachable(topology, sat, now)
                    assert (baseline._gateway_reachable(sat, now, labels)
                            is expected), (sat, now)
                    stranded += sat >= 0 and not expected and bool(
                        topology.gateway_access_satellites(now))
        assert stranded > 0


class TestReportArtifact:
    def test_run_records_its_own_metrics_and_spans(self, small_result):
        assert small_result.metrics_snapshot["counters"]
        assert small_result.spans

    def test_json_payload_structure(self, small_result):
        payload = small_result.to_json()
        assert sorted(payload.keys()) == [
            "curves", "fault_log", "lost_sessions", "n_sessions",
            "recovery_latency_s", "scenario", "spacecore_outcomes"]
        curves = payload["curves"]
        assert (len(curves["t_s"]) == len(curves["spacecore_survival"])
                == len(curves["baseline_survival"]))
        assert payload["scenario"]["seed"] == SEED

    def test_write_report_round_trips(self, small_result, tmp_path):
        path = tmp_path / "chaos.json"
        write_chaos_report(str(path), small_result)
        payload = json.loads(path.read_text())
        assert payload["n_sessions"] == SMALL.n_ues
        # JSON turns the key tuples into nested lists; compare after
        # pushing the in-memory log through the same normalisation.
        normalised = json.loads(json.dumps(
            small_result.to_json()["fault_log"]))
        assert payload["fault_log"] == normalised


#: sha256 of each chaos CLI artifact at the default seed; the bytes do
#: not depend on the worker count.
CLI_ARTIFACTS = {
    "chaos": (["chaos", "--ues", "8", "--horizon", "600"],
              "275cc339460749537ec8172f70ebd83d5ab5022bde9f5ecd2ce0d63ddf9831b9"),
    "chaos-trials": (["chaos", "--ues", "8", "--horizon", "600",
                      "--trials", "3"],
                     "0f6c08777f75a73fd2f3e39e5df09ae15a7eefb0a16ec95f11b64d52d7500dbf"),
    "metrics": (["metrics", "--ues", "6", "--horizon", "600",
                 "--trials", "2"],
                "252e0b867622dc1d8358f4e24133483e304c5563d9197f73e816fddf511c48f8"),
    "trace": (["trace", "--ues", "6", "--horizon", "600"],
              "976a030a3512cbb9d6af0d6067c000c3402728f3bf970734feaf25fb71591ca2"),
}


class TestCli:
    @pytest.mark.parametrize("case", sorted(CLI_ARTIFACTS))
    def test_artifact_bytes_pinned(self, case, tmp_path, monkeypatch):
        from repro.cli import main
        argv, digest = CLI_ARTIFACTS[case]
        monkeypatch.setenv("REPRO_WORKERS", "1")
        out = tmp_path / "artifact"
        assert main(argv + ["--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_chaos_subcommand_runs(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "cli_chaos.json"
        code = main(["chaos", "--ues", "6", "--horizon", "900",
                     "--seed", str(SEED), "--output", str(out)])
        assert code == 0
        assert "survival" in capsys.readouterr().out
        assert out.exists()


class TestPacketProbe:
    def test_probe_absent_by_default(self, small_result):
        assert small_result.packet_probe is None
        assert "packet_probe" not in small_result.to_json()

    def test_probe_routes_the_post_churn_topology(self, small_result):
        from repro.experiments.chaos_availability import PacketProbeSpec
        probed = replace(SMALL, packet_probe=PacketProbeSpec(packets=96))
        result = run_chaos_availability(scenario=probed)
        payload = result.packet_probe
        assert payload is not None
        assert payload["packets"] == 96
        assert payload["t_s"] == SMALL.horizon_s
        assert 0 <= payload["delivered"] <= 96
        assert result.to_json()["packet_probe"] == payload
        # Same seed, same probe -> byte-stable payload (the golden
        # contract the scenario engine relies on).
        again = run_chaos_availability(scenario=probed)
        assert again.packet_probe == payload
        # The probe's router keeps its own metrics.
        assert result.metrics_snapshot == small_result.metrics_snapshot

    def test_probe_rejects_empty_wave(self):
        from repro.experiments.chaos_availability import PacketProbeSpec
        with pytest.raises(ValueError):
            PacketProbeSpec(packets=0)


class TestSpecValidation:
    """``ChaosScenario`` and ``PacketProbeSpec`` refuse what the
    scenario specs refuse, when built directly: one ``ValueError``
    naming the field, at construction rather than mid-run."""

    @pytest.mark.parametrize("field,value", [
        ("horizon_s", float("nan")),
        ("horizon_s", 0.0),
        ("sample_interval_s", 0.0),
        ("sample_interval_s", float("inf")),
        ("n_ues", 0),
        ("n_ues", 2.5),
        ("decay_acceleration", -1.0),
        ("repair_delay_s", float("nan")),
        ("repair_delay_s", -1.0),
        ("jam_start_s", -1.0),
        ("jam_stop_s", float("inf")),
        ("jam_radius_km", -1.0),
        ("ue_jitter_deg", float("-inf")),
        ("compute_load_per_s", -150.0),
        ("seed", -1),
        ("seed", 2.5),
        ("ue_sites", ((95.0, 0.0),)),
        ("ue_sites", ((0.0, float("nan")),)),
    ])
    def test_chaos_scenario_rejects(self, field, value):
        # Fault knobs live on the scenario's ChaosSpec.
        chaos_knobs = {f.name for f in fields(ChaosSpec)}
        with pytest.raises(ValueError, match=field):
            if field in chaos_knobs:
                ChaosScenario(chaos=replace(STOCK_CHURN, **{field: value}))
            else:
                ChaosScenario(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("packets", 0),
        ("packets", 2.5),
        ("packets", True),
        ("t_s", float("nan")),
        ("t_s", float("inf")),
        ("t_s", -1.0),
        ("seed", -7),
        ("seed", 7.5),
    ])
    def test_packet_probe_rejects(self, field, value):
        from repro.experiments.chaos_availability import PacketProbeSpec
        with pytest.raises(ValueError, match=field):
            PacketProbeSpec(**{field: value})

    def test_valid_specs_still_build(self):
        import numpy as np

        from repro.experiments.chaos_availability import PacketProbeSpec
        from repro.scenarios import CATALOG
        calm = replace(STOCK_CHURN, repair_delay_s=None, jam_radius_km=0.0)
        assert ChaosScenario(chaos=calm, seed=np.int64(3)).seed == 3
        assert PacketProbeSpec(packets=np.int64(5), t_s=0.0).packets == 5
        for spec in CATALOG.values():
            spec.chaos_scenario(spec.base_seed)
