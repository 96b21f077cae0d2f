"""Scenario catalog + SLO-gated resilience harness (ISSUE 7 tentpole).

Contracts under test:

* the shipped catalog has >= 5 scenarios, each declaratively complete
  and JSON-describable;
* scenario runs are bit-reproducible: identical artifact bytes across
  repeated runs and across ``REPRO_WORKERS=1`` vs ``2``;
* every committed golden artifact matches a fresh run byte-for-byte
  and passes its SLO budget (the regression gate itself);
* the paper's availability gap holds: SpaceCore survival >= stateful
  baseline survival in *every trial of every scenario*;
* the ``repro scenario`` CLI fronts list/run/check/diff correctly,
  including drift detection.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import run_chaos_trials
from repro.orbits import starlink
from repro.scenarios import (
    CATALOG,
    ChaosSpec,
    PopulationSpec,
    ScenarioSpec,
    SLOBudget,
    build_schedule,
    check_scenario,
    get_scenario,
    golden_path,
    run_scenario,
    scenario_names,
)
from repro.scenarios.golden import GOLDEN_DIR_ENV

#: A deliberately tiny spec for determinism tests (sub-second runs).
TINY = ScenarioSpec(
    name="tiny-test",
    title="Tiny determinism probe",
    description="storm + compute derating over a small population",
    horizon_s=600.0,
    population=PopulationSpec(n_ues=4),
    chaos=ChaosSpec(storm_start_s=60.0, storm_stop_s=300.0,
                    storm_repair_delay_s=90.0,
                    compute_start_s=50.0, compute_stop_s=500.0,
                    compute_factor=0.5),
    slo=SLOBudget(availability_floor=0.5, p99_latency_ceiling_s=60.0),
    n_trials=2,
)


class TestCatalogIntegrity:
    def test_catalog_ships_at_least_five_scenarios(self):
        assert len(CATALOG) >= 5

    def test_names_are_keys_and_sorted_listing(self):
        assert all(CATALOG[name].name == name for name in CATALOG)
        assert scenario_names() == sorted(CATALOG)

    def test_required_failure_modes_covered(self):
        """The ISSUE's five stories each exercise a distinct fault mix."""
        chaos = {name: CATALOG[name].chaos for name in CATALOG}
        assert chaos["handover-storm"].storms
        assert chaos["ground-outage"].downs_ground_stations
        assert chaos["compute-degradation"].degrades_compute
        assert chaos["link-weather"].link_bursts
        assert chaos["urban-hotspot"].jams
        assert chaos["urban-hotspot"].storms

    def test_describe_is_canonical_json(self):
        for spec in CATALOG.values():
            payload = json.dumps(spec.describe(), sort_keys=True)
            assert spec.name in payload

    def test_get_scenario_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad name", title="t", description="d")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", title="t", description="d",
                         n_trials=0)
        with pytest.raises(ValueError):
            ChaosSpec(compute_factor=0.0)
        with pytest.raises(ValueError):
            PopulationSpec(n_ues=0)

    _SPEC_KWARGS = {"name": "x", "title": "t", "description": "d"}

    @pytest.mark.parametrize("cls,field,value", [
        (ScenarioSpec, "horizon_s", float("nan")),
        (ScenarioSpec, "horizon_s", float("inf")),
        (ScenarioSpec, "sample_interval_s", float("inf")),
        (ScenarioSpec, "sample_interval_s", float("nan")),
        (PopulationSpec, "jitter_deg", float("nan")),
        (PopulationSpec, "jitter_deg", -1.0),
        (PopulationSpec, "compute_load_per_s", float("nan")),
        (PopulationSpec, "compute_load_per_s", -150.0),
        (PopulationSpec, "sites", ((95.0, 0.0),)),
        (PopulationSpec, "sites", ((0.0, -181.0),)),
        (PopulationSpec, "sites", ((float("nan"), 0.0),)),
        (PopulationSpec, "sites", ((0.0, float("inf")),)),
        (ChaosSpec, "decay_acceleration", float("nan")),
        (ChaosSpec, "decay_acceleration", -1.0),
        (ChaosSpec, "repair_delay_s", float("inf")),
        (ChaosSpec, "repair_delay_s", -1.0),
        (ChaosSpec, "link_p_good_to_bad", float("nan")),
        (ChaosSpec, "link_p_good_to_bad", 1.5),
        (ChaosSpec, "link_p_bad_to_good", -0.1),
        (ChaosSpec, "jam_start_s", -1.0),
        (ChaosSpec, "jam_stop_s", float("inf")),
        (ChaosSpec, "jam_radius_km", -5.0),
        (ChaosSpec, "jam_radius_km", float("nan")),
        (ChaosSpec, "storm_start_s", float("nan")),
        (ChaosSpec, "storm_stop_s", -1.0),
        (ChaosSpec, "storm_repair_delay_s", -120.0),
        (ChaosSpec, "gs_outage_start_s", -1.0),
        (ChaosSpec, "gs_outage_stop_s", float("nan")),
        (ChaosSpec, "gs_outage_fraction", float("nan")),
        (ChaosSpec, "compute_start_s", -1.0),
        (ChaosSpec, "compute_stop_s", float("inf")),
        (ChaosSpec, "compute_factor", float("nan")),
        (ChaosSpec, "compute_fraction", float("nan")),
        (ScenarioSpec, "n_trials", 2.5),
        (ScenarioSpec, "n_trials", True),
        (ScenarioSpec, "base_seed", 1.5),
        (ScenarioSpec, "base_seed", -1),
        (PopulationSpec, "n_ues", 2.5),
        (run_chaos_trials, "n_trials", True),
        (run_chaos_trials, "n_trials", 2.5),
    ])
    def test_spec_rejects_non_finite_and_impossible(self, cls, field,
                                                    value):
        kwargs = dict(self._SPEC_KWARGS) if cls is ScenarioSpec else {}
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            cls(**kwargs)


class TestScheduleComposition:
    def _system_and_ues(self, spec, seed=0):
        from repro.core import SpaceCoreSystem
        from repro.experiments.chaos_availability import _place_ues
        system = SpaceCoreSystem(starlink())
        scenario = spec.chaos_scenario(seed)
        return system, _place_ues(system, scenario), scenario

    @staticmethod
    def _build(spec, system, ues, scenario):
        return build_schedule(spec.chaos, system, ues, scenario.horizon_s,
                              scenario.seed)

    def test_empty_chaos_spec_builds_empty_schedule(self):
        spec = ScenarioSpec(name="calm", title="t", description="d")
        system, ues, scenario = self._system_and_ues(spec)
        assert len(self._build(spec, system, ues, scenario)) == 0

    def test_build_is_deterministic(self):
        spec = CATALOG["ground-outage"]
        system, ues, scenario = self._system_and_ues(spec, seed=3)
        keys_a = [e.key() for e in
                  self._build(spec, system, ues, scenario).events()]
        keys_b = [e.key() for e in
                  self._build(spec, system, ues, scenario).events()]
        assert keys_a == keys_b

    def test_storm_targets_every_serving_satellite(self):
        from repro.experiments.chaos_availability import (
            serving_blast_radius,
        )
        from repro.faults import FaultKind
        spec = CATALOG["handover-storm"]
        system, ues, scenario = self._system_and_ues(spec)
        serving, _ = serving_blast_radius(system, ues)
        schedule = self._build(spec, system, ues, scenario)
        stormed = {e.target[0] for e in schedule.events()
                   if e.kind is FaultKind.SAT_FAIL}
        assert stormed == serving


class TestRunDeterminism:
    def test_same_spec_same_artifact_bytes(self):
        a = run_scenario(TINY, workers=1).artifact_json()
        b = run_scenario(TINY, workers=1).artifact_json()
        assert a == b

    def test_workers_env_1_vs_2_byte_identical(self, monkeypatch):
        """Seed stability across REPRO_WORKERS=1 vs 2 (satellite task)."""
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial = run_scenario(TINY).artifact_json()
        monkeypatch.setenv("REPRO_WORKERS", "2")
        sharded = run_scenario(TINY).artifact_json()
        assert serial == sharded

    def test_artifact_is_canonical_sorted_json(self):
        text = run_scenario(TINY, workers=1).artifact_json()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert set(payload) == {"scenario", "summary", "slo_report",
                                "merged_snapshot", "trials"}

    def test_compute_degradation_stretches_recovery_latency(self):
        """The same storm with the derating removed recovers faster."""
        from dataclasses import replace
        calm = replace(TINY, chaos=replace(TINY.chaos,
                                           compute_factor=1.0))
        degraded_lat = [
            v for t in run_scenario(TINY, workers=1).trials
            for v in t["recovery_latency_s"]["spacecore"]]
        calm_lat = [
            v for t in run_scenario(calm, workers=1).trials
            for v in t["recovery_latency_s"]["spacecore"]]
        assert degraded_lat, "storm must force recoveries"
        assert len(degraded_lat) == len(calm_lat)
        assert sum(degraded_lat) > sum(calm_lat)

    def test_host_crypto_speed_never_reaches_the_artifact(self, monkeypatch):
        """Fig. 18a's crypto costs are *modelled*: simulated latency and
        CPU-seconds come from the cost model, so an equal but several
        times slower ``power``/``generate``/``is_element`` -- every
        operation the compiled object serves, swapped for a Python
        square-and-multiply ladder -- changes no byte."""
        from repro.crypto.group import SchnorrGroup
        spec = CATALOG["compute-degradation"]
        fast = run_scenario(spec, workers=1)
        calls = {"power": 0, "generate": 0, "is_element": 0}

        def ladder(base, exponent, p):
            acc = 1
            for bit in bin(exponent)[2:]:
                acc = acc * acc % p
                if bit == "1":
                    acc = acc * base % p
            return acc

        def ladder_power(self, base, exponent):
            calls["power"] += 1
            return ladder(base, exponent, self.p)

        def ladder_generate(self, exponent):
            calls["generate"] += 1
            return ladder(self.g, exponent % self.q, self.p)

        def ladder_is_element(self, x):
            calls["is_element"] += 1
            return 0 < x < self.p and ladder(x, self.q, self.p) == 1

        monkeypatch.setattr(SchnorrGroup, "power", ladder_power)
        monkeypatch.setattr(SchnorrGroup, "generate", ladder_generate)
        monkeypatch.setattr(SchnorrGroup, "is_element", ladder_is_element)
        slow = run_scenario(spec, workers=1)
        assert (calls["power"] > 100 and calls["generate"] > 100
                and calls["is_element"] > 30), calls
        assert slow.artifact_json() == fast.artifact_json()
        assert (json.dumps(slow.merged_snapshot, sort_keys=True)
                == json.dumps(fast.merged_snapshot, sort_keys=True))
        assert any(key.startswith("procedure.delay_s")
                   for key in slow.merged_snapshot["histograms"])


class TestGoldenGate:
    """The committed catalog must replay byte-for-byte and pass SLOs."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_committed_golden_replays_and_passes(self, name):
        outcome = check_scenario(CATALOG[name], workers=1)
        assert not outcome.missing_golden, (
            f"no committed golden for {name}; run "
            f"`repro scenario run {name} --update`")
        assert not outcome.drift, "\n".join(outcome.diff)
        assert outcome.slo_verdict == "pass"
        assert outcome.ok

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_stateless_beats_stateful_in_every_trial(self, name):
        """The paper's availability gap, per trial, from the goldens."""
        payload = json.loads(golden_path(name).read_text())
        for trial in payload["trials"]:
            assert (trial["final_survival"]["spacecore"]
                    >= trial["final_survival"]["baseline"]), (
                f"{name} trial {trial['trial']}: stateful baseline "
                "outlived SpaceCore")
        assert payload["summary"]["survival_margin"] >= 0.0
        assert payload["slo_report"]["verdict"] == "pass"

    def test_goldens_carry_merged_snapshot_and_fault_digests(self):
        for name in sorted(CATALOG):
            payload = json.loads(golden_path(name).read_text())
            assert payload["merged_snapshot"]["counters"]
            for trial in payload["trials"]:
                assert len(trial["faults"]["digest"]) == 64
                assert trial["faults"]["total"] == sum(
                    trial["faults"]["by_kind"].values())

    def test_drift_detection(self, tmp_path, monkeypatch):
        monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
        missing = check_scenario(TINY, workers=1)
        assert missing.missing_golden and not missing.ok
        # Commit, then tamper: the diff must surface.
        outcome = check_scenario(TINY, workers=1, update=True)
        assert outcome.ok
        assert check_scenario(TINY, workers=1).ok
        path = golden_path(TINY.name)
        path.write_text(path.read_text().replace(
            '"spacecore"', '"spacecore_tampered"', 1))
        drifted = check_scenario(TINY, workers=1)
        assert drifted.drift and not drifted.ok
        assert any("tampered" in line for line in drifted.diff)


class TestScenarioCli:
    def test_list_names_whole_catalog(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in CATALOG:
            assert name in out

    def test_check_single_scenario_passes(self, capsys):
        assert main(["scenario", "check", "ground-outage",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "ground-outage: ok" in out

    def test_check_missing_golden_fails(self, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
        assert main(["scenario", "check", "ground-outage",
                     "--workers", "1"]) == 1
        assert "missing golden" in capsys.readouterr().out

    def test_run_writes_artifact_and_golden(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))
        out_file = tmp_path / "artifact.json"
        assert main(["scenario", "run", "ground-outage", "--workers",
                     "1", "--update", "--output", str(out_file)]) == 0
        assert (tmp_path / "ground-outage.json").exists()
        assert json.loads(out_file.read_text())["summary"]
        out = capsys.readouterr().out
        assert "verdict=pass" in out
        # diff against the fresh golden must now be clean
        assert main(["scenario", "diff", "ground-outage",
                     "--workers", "1"]) == 0

    def test_unknown_scenario_name_raises(self):
        with pytest.raises(KeyError):
            main(["scenario", "run", "no-such-scenario"])
