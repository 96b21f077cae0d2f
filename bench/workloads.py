"""The four workloads.  Names are the contract later issues cite.

Each workload builds its inputs from ``seed`` in ``__init__`` (the
program only ever sees the generated inputs), offers a small
``warmup`` job, a ``run`` that is the timed job, a ``check`` that
judges one job's outputs outside the timer, and a ``finish`` that
holds the last job to an independent reference.  ``smoke`` makes the
timed job as small as the warm-up job.

Seeds are *cost-neutral* on purpose.  Where an input's cost does not
depend on its random content (a million uniform packets), the whole
input is regenerated from the seed.  Where it does (the Monte Carlo
base seed moves a chaos job's wall time by +-18 %, the count of live
faults moves a churn campaign's by +-25 %), the cost-bearing structure
is fixed and the seed varies only what rides on it -- otherwise the
seed-to-seed spread would bury the 10 % regressions this ledger is
for.  See ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro import scenarios
from repro.baselines.solutions import ALL_SOLUTIONS
from repro.experiments.chaos_availability import (
    ChaosScenario,
    run_chaos_trials,
)
from repro.experiments.signaling import sweep
from repro.obs.metrics import MetricsRegistry
from repro.orbits import TABLE1, make_propagator, starlink
from repro.runtime import planner_decisions
from repro.topology.batch_routing import BatchGeoRouter, BatchRouteResult
from repro.topology.grid import GridTopology
from repro.topology.routing import GeospatialRouter

#: Packets of each wave held to the scalar reference walk.
REFERENCE_SAMPLE = 500


@dataclass
class Outcome:
    """One job's verdict: ops attempted/failed, digest, simulated counts."""

    ops: int
    failed: int
    digest: str
    counts: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""
    op = ""
    #: Span names a traced job must hit / must not hit.
    expect_hit: Tuple[str, ...] = ()
    expect_zero: Tuple[str, ...] = ()

    generator_s = 0.0

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self) -> Any:
        raise NotImplementedError

    def traced_run(self) -> Any:
        """The job the traced run times (in-process, so spans nest)."""
        return self.run()

    def check(self, raw: Any) -> Outcome:
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Reference check after the last job; returns failure notes.

        Any note fails every op of the run: each job's digest is held
        equal to the first job's, so the reference judges them all.
        """
        return []

    def routing_counters(self) -> Dict[str, float]:
        return {}

    def extra_layer_metrics(self, serial_job_s: float
                            ) -> Tuple[Dict[str, float], List[str]]:
        """Workload-specific per-layer rows plus failure notes.

        Serial-vs-sharded numbers exist only where a job is sharded;
        elsewhere 0 means "not measured".
        """
        return {"runtime.speedup": 0.0, "runtime.efficiency": 0.0,
                "runtime.small_fanout_ms": 0.0}, []


# -- scenario-check ---------------------------------------------------------

class ScenarioCheck(Workload):
    """One serial pass over the catalog: ``repro scenario check --all``."""

    name = "scenario-check"
    op = "scenario runs"
    expect_hit = (
        "scenarios.run_scenario", "scenarios.trial",
        "scenarios.build_schedule", "scenarios.artifact_json",
        "runtime.run_sharded", "experiments.run_chaos_availability",
        "experiments.baseline_on_fault", "sim.run", "sim.step",
        "faults.arm", "faults.fire", "core.register", "core.establish",
        "core.recover", "core.attempt", "core.establish_locally",
        "crypto.sign", "crypto.verify", "crypto.sts", "crypto.abe",
        "crypto.modexp", "fiveg.register_and_delegate",
        "fiveg.build_state_bundle", "fiveg.delegate_states",
        "topology.snapshot_graph", "topology.gateway_reachable",
        "topology.station_access", "topology.route_batch",
        "orbits.snapshot_for", "orbits.snapshot_build",
        "orbits.central_angles",
    )

    #: The cheapest scenario (the warm-up job) and the one scenario
    #: that crosses every layer, batch routing plane included (the
    #: smoke job).
    WARMUP = "ground-outage"
    SMOKE = "routing-survival"

    def __init__(self, seed: int, smoke: bool):
        names = sorted(scenarios.scenario_names())
        # The catalog and its goldens ARE the input; the seed draws the
        # order they run in (state leaking from one scenario run into
        # the next would show as a golden mismatch on some order).
        order = np.random.default_rng(seed).permutation(len(names))
        ordered = [names[i] for i in order]
        if smoke:
            ordered = [self.SMOKE]
        self.specs = [scenarios.get_scenario(name) for name in ordered]
        self.warm_specs = [scenarios.get_scenario(self.WARMUP)]
        self.goldens = {
            name: scenarios.golden_path(name).read_text(encoding="utf-8")
            for name in names}

    @staticmethod
    def _pass(specs: Sequence[Any]) -> List[Tuple[str, str, str, Any]]:
        out = []
        for spec in specs:
            result = scenarios.run_scenario(spec, workers=1)
            out.append((spec.name, result.artifact_json(),
                        result.slo_report().verdict, result))
        return out

    def warmup(self) -> None:
        self._pass(self.warm_specs)

    def run(self) -> List[Tuple[str, str, str, Any]]:
        return self._pass(self.specs)

    def check(self, raw: List[Tuple[str, str, str, Any]]) -> Outcome:
        digest = hashlib.sha256()
        failed = matches = faults = trials = size = 0
        notes = []
        for name, artifact, verdict, result in sorted(
                raw, key=lambda row: row[0]):
            digest.update(artifact.encode("utf-8"))
            size += len(artifact.encode("utf-8"))
            summary = result.summary()
            faults += summary["faults_injected"]
            trials += summary["n_trials"]
            golden_ok = artifact == self.goldens[name]
            matches += golden_ok
            if not golden_ok or verdict == scenarios.FAIL:
                failed += 1
                notes.append(f"{name}: golden_match={golden_ok} "
                             f"verdict={verdict}")
        return Outcome(len(raw), failed, digest.hexdigest(), {
            "scenario_runs": len(raw), "trials": trials,
            "faults_injected": faults, "golden_matches": matches,
            "artifact_bytes": size}, notes)


# -- chaos-sharded ----------------------------------------------------------

class ChaosSharded(Workload):
    """A 4-trial chaos Monte Carlo through ``run_sharded`` on 2 workers."""

    name = "chaos-sharded"
    op = "trials"
    expect_hit = (
        "runtime.run_sharded", "experiments.run_chaos_availability",
        "experiments.baseline_on_fault", "sim.run", "sim.step",
        "faults.arm", "faults.fire", "core.register", "core.establish",
        "core.recover", "crypto.sign", "crypto.verify", "crypto.sts",
        "crypto.abe", "crypto.modexp", "topology.snapshot_graph",
        "topology.gateway_reachable", "orbits.snapshot_for",
        "orbits.snapshot_build",
    )
    expect_zero = ("scenarios.run_scenario", "topology.route_batch")

    TRIALS = 4
    WORKERS = 2
    #: The Monte Carlo base seed is part of the fixed input: it alone
    #: moves the job's wall time by +-18 % (4.6-6.5 s over seeds 0-7).
    BASE_SEED = 0

    def __init__(self, seed: int, smoke: bool):
        del seed  # no cost-neutral handle on this workload; see README
        self.constellation = starlink()
        self.warm_scenario = ChaosScenario(n_ues=8, horizon_s=600.0)
        self.scenario = (self.warm_scenario if smoke
                         else ChaosScenario(n_ues=24, horizon_s=3600.0))
        self.sharded_repeats = 1 if smoke else 3
        self._last_text = ""

    def _trials(self, scenario: ChaosScenario, workers: int) -> Any:
        return run_chaos_trials(
            n_trials=self.TRIALS, base_seed=self.BASE_SEED,
            scenario=scenario, constellation=self.constellation,
            workers=workers)

    def warmup(self) -> None:
        self._trials(self.warm_scenario, self.WORKERS)

    def run(self) -> Any:
        return self._trials(self.scenario, self.WORKERS)

    def traced_run(self) -> Any:
        return self._trials(self.scenario, 1)

    def check(self, raw: Any) -> Outcome:
        self._last_text = json.dumps(raw.to_json(), sort_keys=True)
        summary = raw.summary()
        return Outcome(self.TRIALS, 0, hashlib.sha256(
            self._last_text.encode("utf-8")).hexdigest(), {
                "trials": summary["n_trials"],
                "faults_injected": summary["faults_injected"],
                "spacecore_lost": summary["spacecore_lost"],
                "baseline_lost": summary["baseline_lost"]})

    def finish(self) -> List[str]:
        serial = json.dumps(self.traced_run().to_json(), sort_keys=True)
        if serial != self._last_text:
            return ["sharded to_json() differs from the serial run"]
        return []

    def extra_layer_metrics(self, serial_job_s: float
                            ) -> Tuple[Dict[str, float], List[str]]:
        """Serial-vs-sharded numbers, all from untraced jobs.

        Call after ``check`` has seen the (serial) traced job: the
        sharded bytes are held to that run's.
        """
        decisions_before = len(planner_decisions())
        sharded = []
        for _ in range(self.sharded_repeats):
            start = time.perf_counter()
            result = self.run()
            sharded.append(time.perf_counter() - start)
        sharded_s = min(sharded)
        decisions = planner_decisions()[decisions_before:]
        notes = []
        if json.dumps(result.to_json(), sort_keys=True) != self._last_text:
            notes.append("sharded to_json() differs from the serial run")
        constellations = [factory() for factory in TABLE1.values()]
        start = time.perf_counter()
        sweep(ALL_SOLUTIONS, constellations, workers=self.WORKERS)
        small_fanout_s = time.perf_counter() - start
        speedup = serial_job_s / sharded_s
        return {"runtime.sharded_share": sum(
                    1 for decision in decisions
                    if decision.get("mode") == "sharded") / len(sharded),
                "runtime.speedup": speedup,
                "runtime.efficiency": speedup / self.WORKERS,
                "runtime.small_fanout_ms": small_fanout_s * 1e3}, notes


# -- the two waves ----------------------------------------------------------

def _wave(constellation: Any, packets: int,
          rng: np.random.Generator) -> Tuple[np.ndarray, ...]:
    """Uniform sources, destinations uniform inside the coverage band."""
    band = math.radians(min(constellation.inclination_deg,
                            180.0 - constellation.inclination_deg)) - 0.02
    return (rng.integers(0, constellation.total_satellites, packets),
            rng.uniform(-band, band, packets),
            rng.uniform(-math.pi, math.pi, packets))


def _sample_indices(packets: int, count: int) -> np.ndarray:
    return np.arange(0, packets, max(1, packets // count))[:count]


def _digest_wave(digest: Any, result: BatchRouteResult,
                 sample: np.ndarray) -> None:
    for array in (result.delivered, result.degraded, result.delay_s,
                  result.path_len):
        digest.update(np.ascontiguousarray(array).tobytes())
    for index in sample:
        digest.update(np.asarray(result.path(int(index)),
                                 dtype=np.int32).tobytes())


def _sampled(result: BatchRouteResult, sample: np.ndarray
             ) -> List[Tuple[bool, float, List[int]]]:
    """``(delivered, delay_s, path)`` of the sampled packets -- all the
    reference check needs, so the (large) result can be dropped."""
    return [(bool(result.delivered[i]), float(result.delay_s[i]),
             result.path(int(i))) for i in sample]


def _reference_mismatches(scalar: GeospatialRouter, wave: Sequence[Any],
                          sampled: Sequence[Tuple[bool, float, List[int]]],
                          sample: np.ndarray, t: float) -> int:
    """Sampled packets not bit-identical to the scalar reference walk."""
    src, lats, lons = wave
    bad = 0
    for index, got in zip((int(i) for i in sample), sampled):
        expected = scalar.route(int(src[index]), float(lats[index]),
                                float(lons[index]), t)
        if got != (expected.delivered, expected.delay_s, expected.path):
            bad += 1
    return bad


class WaveSteady(Workload):
    """A 1M-packet wave at one epoch over an unfaulted shell."""

    name = "wave-steady"
    op = "packets"
    expect_hit = ("topology.route_batch",)
    expect_zero = (
        "topology.scalar_route", "topology.snapshot_graph",
        "orbits.snapshot_build", "crypto.sign", "crypto.verify",
        "crypto.sts", "crypto.abe", "crypto.modexp", "sim.step",
        "core.attempt", "runtime.run_sharded",
    )

    PACKETS = 1_000_000
    SMOKE_PACKETS = 100_000
    EPOCH_S = 300.0

    def __init__(self, seed: int, smoke: bool):
        constellation = starlink()
        self.topology = GridTopology(
            make_propagator(constellation, "ideal"), [])
        self.registry = MetricsRegistry()
        self.router = BatchGeoRouter(self.topology, metrics=self.registry)
        start = time.perf_counter()
        rng = np.random.default_rng([seed, 1])
        self.warm_wave = _wave(constellation, self.SMOKE_PACKETS, rng)
        self.wave = (self.warm_wave if smoke
                     else _wave(constellation, self.PACKETS, rng))
        self.generator_s = time.perf_counter() - start
        self.sample = _sample_indices(len(self.wave[0]), REFERENCE_SAMPLE)
        self._last: List[Tuple[bool, float, List[int]]] = []
        self._counters_seen: Dict[str, float] = {}
        self._counters: Dict[str, float] = {}

    def warmup(self) -> None:
        self.router.route_batch(*self.warm_wave, self.EPOCH_S)
        self._counters_seen = self.registry.snapshot()["counters"]

    def run(self) -> BatchRouteResult:
        return self.router.route_batch(*self.wave, self.EPOCH_S)

    def check(self, raw: BatchRouteResult) -> Outcome:
        self._last = _sampled(raw, self.sample)
        # The router (and its registry) outlives the job, so a job's
        # own counts are the change since the previous check.
        seen = self.registry.snapshot()["counters"]
        self._counters = {key: value - self._counters_seen.get(key, 0)
                          for key, value in seen.items()}
        self._counters_seen = seen
        digest = hashlib.sha256()
        _digest_wave(digest, raw, self.sample)
        delivered = int(raw.delivered.sum())
        return Outcome(len(raw), len(raw) - delivered, digest.hexdigest(), {
            "packets": len(raw), "delivered": delivered,
            "degraded": int(raw.degraded.sum()),
            "fallback": int(raw.fallback.sum())})

    def finish(self) -> List[str]:
        bad = _reference_mismatches(GeospatialRouter(self.topology),
                                    self.wave, self._last, self.sample,
                                    self.EPOCH_S)
        return [f"{bad} sampled packets differ from the scalar walk"] \
            if bad else []

    def routing_counters(self) -> Dict[str, float]:
        return self._counters


class WaveChurn(Workload):
    """A fault campaign: one fault, one epoch step, one wave -- x100."""

    name = "wave-churn"
    op = "packets"
    expect_hit = ("topology.route_batch", "topology.scalar_route",
                  "orbits.snapshot_for", "orbits.snapshot_build")
    expect_zero = (
        "topology.snapshot_graph", "crypto.sign", "crypto.verify",
        "crypto.sts", "crypto.abe", "crypto.modexp", "sim.step",
        "core.attempt", "runtime.run_sharded",
    )

    STEPS = 100
    SMOKE_STEPS = 10
    WAVE_PACKETS = 1000
    EPOCH_S = 300.0
    STEP_S = 15.0

    def __init__(self, seed: int, smoke: bool):
        self.constellation = starlink()
        steps = self.SMOKE_STEPS if smoke else self.STEPS
        start = time.perf_counter()
        rng = np.random.default_rng([seed, 2])
        self.campaign = self._campaign(steps, rng)
        self.warm_campaign = (self.campaign if smoke else
                              self._campaign(self.SMOKE_STEPS, rng))
        self.generator_s = time.perf_counter() - start
        per_step = max(1, REFERENCE_SAMPLE // steps)
        self.sample = _sample_indices(self.WAVE_PACKETS, per_step)
        self._counters: Dict[str, float] = {}
        self._last: List[List[Tuple[bool, float, List[int]]]] = []

    def _campaign(self, steps: int, rng: np.random.Generator
                  ) -> List[Tuple[bool, int, Tuple[np.ndarray, ...]]]:
        """``(recover?, satellite, wave)`` per step.

        The fail/recover rhythm is fixed -- every third step recovers
        the oldest failure -- so every seed sees the same number of
        live faults at every step (that count sets the fallback share
        and with it ~95 % of the job's cost); the seed draws *which*
        satellites fail and every packet.
        """
        victims = iter(rng.permutation(
            self.constellation.total_satellites)[:steps].tolist())
        failed: List[int] = []
        campaign = []
        for step in range(steps):
            recover = step % 3 == 2
            if recover:
                sat = failed.pop(0)
            else:
                sat = next(victims)
                failed.append(sat)
            campaign.append((recover, sat, _wave(
                self.constellation, self.WAVE_PACKETS, rng)))
        return campaign

    def _fresh_topology(self) -> GridTopology:
        return GridTopology(make_propagator(self.constellation, "ideal"), [])

    def _steps(self, topology: GridTopology, campaign: Sequence[Any]) -> Any:
        """Apply each step's fault to ``topology``; yield (epoch, wave)."""
        for step, (recover, sat, wave) in enumerate(campaign):
            if recover:
                topology.recover_satellite(sat)
            else:
                topology.fail_satellite(sat)
            yield self.EPOCH_S + self.STEP_S * step, wave

    def _run(self, campaign: Sequence[Any]
             ) -> Tuple[List[BatchRouteResult], BatchGeoRouter]:
        topology = self._fresh_topology()
        router = BatchGeoRouter(topology, metrics=MetricsRegistry())
        return [router.route_batch(*wave, epoch)
                for epoch, wave in self._steps(topology, campaign)], router

    def warmup(self) -> None:
        self._run(self.warm_campaign)

    def run(self) -> Tuple[List[BatchRouteResult], BatchGeoRouter]:
        return self._run(self.campaign)

    def check(self, raw: Tuple[List[BatchRouteResult], BatchGeoRouter]
              ) -> Outcome:
        results, router = raw
        self._last = [_sampled(result, self.sample) for result in results]
        self._counters = router.metrics.snapshot()["counters"]
        digest = hashlib.sha256()
        for result in results:
            _digest_wave(digest, result, self.sample)
        packets = sum(len(result) for result in results)
        # Undelivered packets are a simulated statistic here (faults
        # partition the mesh), not a failure.
        return Outcome(packets, 0, digest.hexdigest(), {
            "packets": packets,
            "delivered": sum(int(r.delivered.sum()) for r in results),
            "degraded": sum(int(r.degraded.sum()) for r in results),
            "fallback": sum(int(r.fallback.sum()) for r in results),
            "table_builds": int(self._counters.get(
                "routing.table_builds", 0))})

    def finish(self) -> List[str]:
        """Replay the faults, holding each step's sample of the last
        job to the scalar walk over the topology as it stood then."""
        topology = self._fresh_topology()
        scalar = GeospatialRouter(topology)
        bad = 0
        for sampled, (epoch, wave) in zip(
                self._last, self._steps(topology, self.campaign)):
            bad += _reference_mismatches(scalar, wave, sampled,
                                         self.sample, epoch)
        return [f"{bad} sampled packets differ from the scalar walk"] \
            if bad else []

    def routing_counters(self) -> Dict[str, float]:
        return self._counters


class WaveChurn(Workload):
    """A fault campaign: one fault, one epoch step, one wave -- x100."""

    name = "wave-churn"
    op = "packets"
    expect_hit = ("topology.route_batch", "topology.scalar_route",
                  "orbits.snapshot_for", "orbits.snapshot_build")
    expect_zero = (
        "topology.snapshot_graph", "crypto.sign", "crypto.verify",
        "crypto.sts", "crypto.abe", "crypto.modexp", "sim.step",
        "core.attempt", "runtime.run_sharded",
    )

    STEPS = 100
    SMOKE_STEPS = 10
    WAVE_PACKETS = 1000
    EPOCH_S = 300.0
    STEP_S = 15.0

    def __init__(self, seed: int, smoke: bool):
        self.constellation = starlink()
        steps = self.SMOKE_STEPS if smoke else self.STEPS
        start = time.perf_counter()
        rng = np.random.default_rng([seed, 2])
        self.campaign = self._campaign(steps, rng)
        self.warm_campaign = (self.campaign if smoke else
                              self._campaign(self.SMOKE_STEPS, rng))
        self.generator_s = time.perf_counter() - start
        per_step = max(1, REFERENCE_SAMPLE // steps)
        self.sample = _sample_indices(self.WAVE_PACKETS, per_step)
        self._counters: Dict[str, float] = {}
        self._last: List[List[Tuple[bool, float, List[int]]]] = []

    def _campaign(self, steps: int, rng: np.random.Generator
                  ) -> List[Tuple[bool, int, Tuple[np.ndarray, ...]]]:
        """``(recover?, satellite, wave)`` per step.

        The fail/recover rhythm is fixed -- every third step recovers
        the oldest failure -- so every seed sees the same number of
        live faults at every step (that count sets the fallback share
        and with it ~95 % of the job's cost); the seed draws *which*
        satellites fail and every packet.
        """
        victims = iter(rng.permutation(
            self.constellation.total_satellites)[:steps].tolist())
        failed: List[int] = []
        campaign = []
        for step in range(steps):
            recover = step % 3 == 2
            if recover:
                sat = failed.pop(0)
            else:
                sat = next(victims)
                failed.append(sat)
            campaign.append((recover, sat, _wave(
                self.constellation, self.WAVE_PACKETS, rng)))
        return campaign

    def _fresh_topology(self) -> GridTopology:
        return GridTopology(make_propagator(self.constellation, "ideal"), [])

    def _steps(self, topology: GridTopology, campaign: Sequence[Any]) -> Any:
        """Apply each step's fault to ``topology``; yield (epoch, wave)."""
        for step, (recover, sat, wave) in enumerate(campaign):
            if recover:
                topology.recover_satellite(sat)
            else:
                topology.fail_satellite(sat)
            yield self.EPOCH_S + self.STEP_S * step, wave

    def _run(self, campaign: Sequence[Any]
             ) -> Tuple[List[BatchRouteResult], BatchGeoRouter]:
        topology = self._fresh_topology()
        router = BatchGeoRouter(topology, metrics=MetricsRegistry())
        return [router.route_batch(*wave, epoch)
                for epoch, wave in self._steps(topology, campaign)], router

    def warmup(self) -> None:
        self._run(self.warm_campaign)

    def run(self) -> Tuple[List[BatchRouteResult], BatchGeoRouter]:
        return self._run(self.campaign)

    def check(self, raw: Tuple[List[BatchRouteResult], BatchGeoRouter]
              ) -> Outcome:
        results, router = raw
        self._last = [_sampled(result, self.sample) for result in results]
        self._counters = router.metrics.snapshot()["counters"]
        digest = hashlib.sha256()
        for result in results:
            _digest_wave(digest, result, self.sample)
        packets = sum(len(result) for result in results)
        # Undelivered packets are a simulated statistic here (faults
        # partition the mesh), not a failure.
        return Outcome(packets, 0, digest.hexdigest(), {
            "packets": packets,
            "delivered": sum(int(r.delivered.sum()) for r in results),
            "degraded": sum(int(r.degraded.sum()) for r in results),
            "fallback": sum(int(r.fallback.sum()) for r in results),
            "table_builds": int(self._counters.get(
                "routing.table_builds", 0))})

    def finish(self) -> List[str]:
        """Replay the faults, holding each step's sample of the last
        job to the scalar walk over the topology as it stood then."""
        topology = GridTopology(
            make_propagator(self.constellation, "ideal"), [])
        scalar = GeospatialRouter(topology)
        bad = 0
        for step, (recover, sat, wave) in enumerate(self.campaign):
            if recover:
                topology.recover_satellite(sat)
            else:
                topology.fail_satellite(sat)
            bad += _reference_mismatches(
                scalar, wave, self._last[step], self.sample,
                self.EPOCH_S + self.STEP_S * step)
        return [f"{bad} sampled packets differ from the scalar walk"] \
            if bad else []

    def routing_counters(self) -> Dict[str, float]:
        return self._counters


WORKLOADS = {cls.name: cls for cls in (ScenarioCheck, ChaosSharded,
                                       WaveSteady, WaveChurn)}
