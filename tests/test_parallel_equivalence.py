"""Serial-vs-sharded bit-equivalence: workers change wall-clock only.

The acceptance property of the parallel runtime: for the same base
seed, every experiment artifact is bit-for-bit identical whether it
ran serially (``workers=1``, today's behaviour) or sharded across any
number of worker processes, in any shard completion order.

Every ``run_sharded`` worker in ``src/repro`` has a case here:
``TestEveryWorkerHasACase`` collects the dispatch sites from the
source and fails on a worker that no test byte-compares.  This is the
dynamic form of the serial-equals-sharded contract -- a worker that
reads the wall clock, draws unseeded randomness or leaks state through
a module global fails its case here.

Every ``workers > 1`` call here runs under ``REPRO_PLANNER=sharded``
(module-wide fixture below): the auto planner would finish most of
these deliberately small workloads inside its serial budget, which
would leave the pool machinery -- the thing this file exists to
check -- untested.  Forcing the medium is
safe precisely because of the property under test: the planner may
only ever change *where* shards run, never what they produce.
"""

import ast
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.baselines.solutions import ALL_SOLUTIONS
from repro.experiments.chaos_availability import (
    STOCK_CHURN,
    ChaosScenario,
    PacketProbeSpec,
    run_chaos_trials,
)
from repro.experiments.cpu import fig7_cpu_breakdown, fig8_latency_sweep
from repro.experiments.observability import (
    chaos_observability,
    cohort_observability,
)
from repro.experiments.sensitivity import (
    constellation_scaling,
    sensitivity_sweep,
)
from repro.experiments.signaling import sweep
from repro.hardware.model import PLATFORMS
from repro.orbits import iridium, oneweb
from repro.runtime import PLANNER_ENV_VAR, shutdown_worker_pools
from repro.scenarios import run_scenario

from .test_scenarios import TINY

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"

#: Small but non-trivial chaos scenario so a 3-trial Monte Carlo stays
#: test-suite friendly while still injecting dozens of faults.
_SCENARIO = ChaosScenario(horizon_s=600.0, n_ues=6,
                          chaos=replace(STOCK_CHURN, jam_start_s=120.0,
                                        jam_stop_s=300.0))


@pytest.fixture(scope="module", autouse=True)
def _force_pool_path():
    """Pin the pool medium for the whole module; tear the pool down."""
    previous = os.environ.get(PLANNER_ENV_VAR)
    os.environ[PLANNER_ENV_VAR] = "sharded"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(PLANNER_ENV_VAR, None)
        else:
            os.environ[PLANNER_ENV_VAR] = previous
        shutdown_worker_pools()


@pytest.fixture(scope="module")
def serial_monte_carlo():
    return run_chaos_trials(n_trials=3, base_seed=5, scenario=_SCENARIO,
                            workers=1)


class TestChaosEquivalence:
    def test_sharded_artifact_bit_identical(self, serial_monte_carlo):
        sharded = run_chaos_trials(n_trials=3, base_seed=5,
                                   scenario=_SCENARIO, workers=2)
        assert json.dumps(sharded.to_json(), sort_keys=True) == \
            json.dumps(serial_monte_carlo.to_json(), sort_keys=True)

    def test_worker_count_beyond_trials(self, serial_monte_carlo):
        oversubscribed = run_chaos_trials(n_trials=3, base_seed=5,
                                          scenario=_SCENARIO, workers=8)
        assert oversubscribed.to_json() == serial_monte_carlo.to_json()

    def test_fault_logs_identical_per_trial(self, serial_monte_carlo):
        sharded = run_chaos_trials(n_trials=3, base_seed=5,
                                   scenario=_SCENARIO, workers=3)
        for serial_trial, sharded_trial in zip(serial_monte_carlo.results,
                                               sharded.results):
            assert serial_trial.fault_log == sharded_trial.fault_log
            assert serial_trial.spacecore_outcomes == \
                sharded_trial.spacecore_outcomes

    def test_distinct_base_seeds_diverge(self, serial_monte_carlo):
        other = run_chaos_trials(n_trials=3, base_seed=6,
                                 scenario=_SCENARIO, workers=1)
        assert other.to_json() != serial_monte_carlo.to_json()

    def test_trial_seeds_are_derived_not_sequential(self,
                                                    serial_monte_carlo):
        seeds = [r.scenario.seed for r in serial_monte_carlo.results]
        assert len(set(seeds)) == 3
        assert seeds != [5, 6, 7]


class TestMetricsEquivalence:
    """ISSUE 5: merged observability snapshots are bit-identical for
    any worker count -- per-shard registries fold in trial order."""

    @pytest.fixture(scope="class")
    def serial_chaos_metrics(self):
        return chaos_observability(n_trials=3, base_seed=5,
                                   scenario=_SCENARIO, workers=1)

    def test_chaos_snapshot_bit_identical(self, serial_chaos_metrics):
        sharded = chaos_observability(n_trials=3, base_seed=5,
                                      scenario=_SCENARIO, workers=2)
        assert json.dumps(sharded["snapshot"], sort_keys=True) == \
            json.dumps(serial_chaos_metrics["snapshot"], sort_keys=True)

    def test_chaos_trace_bit_identical(self, serial_chaos_metrics):
        sharded = chaos_observability(n_trials=3, base_seed=5,
                                      scenario=_SCENARIO, workers=3)
        assert json.dumps(sharded["trace"], sort_keys=True) == \
            json.dumps(serial_chaos_metrics["trace"], sort_keys=True)

    def test_chaos_snapshot_is_sum_of_trials(self, serial_chaos_metrics):
        merged = serial_chaos_metrics["snapshot"]["counters"]
        per_trial = [t["snapshot"]["counters"]
                     for t in serial_chaos_metrics["per_trial"]]
        for key, total in merged.items():
            assert total == sum(c.get(key, 0) for c in per_trial)

    def test_cohort_snapshot_bit_identical(self):
        kwargs = dict(constellation=iridium(), n_ues=2_000,
                      duration_s=300.0, base_seed=5, n_cohorts=8)
        serial = cohort_observability(workers=1, **kwargs)
        sharded = cohort_observability(workers=2, **kwargs)
        assert json.dumps(serial["snapshot"], sort_keys=True) == \
            json.dumps(sharded["snapshot"], sort_keys=True)
        assert serial["per_point"] == sharded["per_point"]


class TestSweepEquivalence:
    def test_signaling_sweep_identical_across_worker_counts(self):
        constellations = [iridium(), oneweb()]
        serial = sweep(ALL_SOLUTIONS, constellations)
        for workers in (2, 3):
            assert sweep(ALL_SOLUTIONS, constellations,
                         workers=workers) == serial

    def test_sensitivity_grid_identical(self):
        serial = sensitivity_sweep(iridium())
        assert sensitivity_sweep(iridium(), workers=2) == serial

    def test_constellation_scaling_identical(self):
        sizes = ((6, 11), (12, 12))
        serial = constellation_scaling(sizes=sizes)
        assert constellation_scaling(sizes=sizes, workers=2) == serial

    def test_fig8_latency_identical(self):
        serial = fig8_latency_sweep(rates=(10, 100, 300))
        assert fig8_latency_sweep(rates=(10, 100, 300),
                                  workers=2) == serial

    def test_fig7_cpu_identical(self):
        for platform in PLATFORMS:
            serial = fig7_cpu_breakdown(platform, workers=1)
            assert fig7_cpu_breakdown(platform, workers=2) == serial


class TestScenarioEquivalence:
    @pytest.mark.parametrize("spec", [
        TINY,
        replace(TINY, packet_probe=PacketProbeSpec(packets=64)),
    ], ids=["tiny", "tiny-probe"])
    def test_scenario_artifact_bit_identical(self, spec):
        serial = run_scenario(spec, workers=1).artifact_json()
        assert run_scenario(spec, workers=2).artifact_json() == serial
        shipped = [("packet_probe" in trial)
                   for trial in json.loads(serial)["trials"]]
        assert shipped == [spec.packet_probe is not None] * spec.n_trials


class TestPlannerAutoEquivalence:
    """With no forced mode the planner picks the medium itself; the
    artifact must not depend on where the serial budget ran out."""

    def test_auto_mode_matches_serial(self, monkeypatch):
        monkeypatch.delenv(PLANNER_ENV_VAR, raising=False)
        constellations = [iridium(), oneweb()]
        serial = sweep(ALL_SOLUTIONS, constellations, workers=1)
        assert sweep(ALL_SOLUTIONS, constellations, workers=2) == serial

    def test_auto_mode_chaos_matches_serial(self, monkeypatch):
        monkeypatch.delenv(PLANNER_ENV_VAR, raising=False)
        serial = run_chaos_trials(n_trials=2, base_seed=5,
                                  scenario=_SCENARIO, workers=1)
        sharded = run_chaos_trials(n_trials=2, base_seed=5,
                                   scenario=_SCENARIO, workers=2)
        assert sharded.to_json() == serial.to_json()


#: Every ``run_sharded`` worker in ``src/repro`` -> the test above
#: that byte-compares its serial and sharded output.
EQUIVALENCE_CASES = {
    "repro.experiments.chaos_availability._chaos_trial":
        "TestChaosEquivalence.test_sharded_artifact_bit_identical",
    "repro.experiments.cpu._fig7_point":
        "TestSweepEquivalence.test_fig7_cpu_identical",
    "repro.experiments.cpu._fig8_point":
        "TestSweepEquivalence.test_fig8_latency_identical",
    "repro.experiments.observability._observed_cohort_point":
        "TestMetricsEquivalence.test_cohort_snapshot_bit_identical",
    "repro.experiments.sensitivity._scaling_cell":
        "TestSweepEquivalence.test_constellation_scaling_identical",
    "repro.experiments.sensitivity._sensitivity_cell":
        "TestSweepEquivalence.test_sensitivity_grid_identical",
    "repro.experiments.signaling._sweep_point":
        "TestSweepEquivalence."
        "test_signaling_sweep_identical_across_worker_counts",
}


def shipped_shard_workers():
    """Dotted name of the worker at every ``run_sharded(<worker>, ...)``
    call under ``src/repro``, read from the source."""
    workers = set()
    for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC_ROOT).with_suffix("")
                          .parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else "")
            if name != "run_sharded":
                continue
            worker = node.args[0] if node.args else None
            assert isinstance(worker, ast.Name), (
                f"{path}:{node.lineno}: run_sharded needs a module-level "
                f"worker named by its first argument")
            workers.add(f"{module}.{worker.id}")
    return workers


class TestEveryWorkerHasACase:
    def test_every_worker_has_a_case(self):
        workers = shipped_shard_workers()
        assert workers, "found no run_sharded call sites"
        missing = sorted(workers - set(EQUIVALENCE_CASES))
        assert not missing, (
            f"run_sharded workers with no serial-vs-sharded case: "
            f"{missing}; add one to {__name__}")
        stale = sorted(set(EQUIVALENCE_CASES) - workers)
        assert not stale, f"cases for workers no code dispatches: {stale}"
        for case in EQUIVALENCE_CASES.values():
            cls, test = case.split(".")
            assert callable(getattr(globals()[cls], test, None)), case
