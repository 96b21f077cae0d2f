"""Session survival under injected churn: the Fig. 13/14 story, live.

The offline availability sweep (:mod:`.availability`) multiplies
analytic survival probabilities; this experiment instead *runs* a
day-in-the-life segment on the event engine with a
:class:`~repro.faults.chaos.ChaosController` injecting satellite
deaths, Gilbert-Elliott link bursts, and a regional jamming window,
and measures what actually happens to established sessions:

* **SpaceCore**: every fault is survived by the real recovery path --
  RLF detection, NAS-timed retries, re-attach with the UE-held state
  replica on the best live satellite
  (:class:`~repro.core.robustness.ResilientSpaceCore`);
* **stateful baseline** (5G NTN-style): a serving-satellite death
  destroys the on-board context, so the UE must re-run the full
  home-routed registration + establishment -- which needs a live ISL
  path to a gateway and every message of the long flow to survive the
  (possibly jammed, possibly bursty) links.

Outputs are session-survival curves and recovery-latency samples for
both systems, JSON-serialisable for the report layer.  Runs are
bit-reproducible: the same seed yields an identical fault event log
and identical procedure outcome records.
"""

from __future__ import annotations

import json
import math
import numbers
import random
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

import networkx as nx

from ..baselines.solutions import fiveg_ntn
from ..constants import (
    INMARSAT_REGISTRATION_DELAY_S,
    NAS_MAX_ATTEMPTS,
    NAS_RETRY_BACKOFF_BASE_S,
    NAS_RETRY_BACKOFF_CAP_S,
    NAS_T3510_S,
    RLF_DETECTION_S,
)
from ..core import ResilientSpaceCore, SpaceCoreSystem
from ..faults.chaos import ChaosController, FaultKind, FaultSchedule
from ..faults.failures import procedure_success_probability
from ..fiveg.messages import ProcedureKind
from ..fiveg.ue import UserEquipment
from ..hardware.model import RASPBERRY_PI_4
from ..hardware.queueing import procedure_latency
from ..orbits.constellation import Constellation, starlink
from ..runtime.parallel import get_shared, run_sharded, seed_for
from ..sim.engine import Simulator

#: Four radio messages of the localized Fig. 16a exchange at LEO
#: one-way latency: SpaceCore's re-attach cost once a live satellite
#: is selected.
SPACECORE_LOCAL_EXCHANGE_S = 4 * 0.0027


def _require_finite(spec) -> None:
    """Reject NaN and infinity in any float field of a frozen spec."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{type(spec).__name__}.{f.name} must be "
                             f"finite, got {value!r}")


def _require_non_negative(spec, *names: str) -> None:
    """Reject negative radii, delays and window edges (None passes)."""
    for name in names:
        value = getattr(spec, name)
        if value is not None and value < 0:
            raise ValueError(f"{type(spec).__name__}.{name} cannot be "
                             f"negative, got {value!r}")


def _require_positive(spec, *names: str) -> None:
    """Reject zero or negative horizons and intervals."""
    for name in names:
        value = getattr(spec, name)
        if not value > 0:
            raise ValueError(f"{type(spec).__name__}.{name} must be "
                             f"positive, got {value!r}")


def _require_count(spec, name: str, minimum: int) -> None:
    """Reject a count or seed that is not an integer >= ``minimum``."""
    value = getattr(spec, name)
    if not (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= minimum):
        raise ValueError(f"{type(spec).__name__}.{name} must be an "
                         f"integer >= {minimum}, got {value!r}")


def _require_probability(spec, *names: str) -> None:
    """Reject a probability outside ``[0, 1]``."""
    for name in names:
        if not 0.0 <= getattr(spec, name) <= 1.0:
            raise ValueError(f"{name} must be a probability in [0, 1]")


def _require_sites(spec, name: str) -> None:
    """Reject (lat, lon) degree sites off the globe (None passes)."""
    for site in getattr(spec, name) or ():
        lat, lon = site
        if not (math.isfinite(lat) and math.isfinite(lon)
                and abs(lat) <= 90.0 and abs(lon) <= 180.0):
            raise ValueError(
                f"{type(spec).__name__}.{name} entry {site!r} must be "
                f"finite degrees with |lat| <= 90 and |lon| <= 180")


@dataclass(frozen=True)
class ChaosScenario:
    """Knobs of the default churn scenario (all seeded).

    Validated on construction, like the scenario specs that build it:
    a NaN horizon, a loss probability above 1 or a zero sample
    interval raises ``ValueError`` naming the field.
    """

    horizon_s: float = 3600.0
    sample_interval_s: float = 120.0
    n_ues: int = 24
    #: Hazard compression so simulation-scale horizons see Fig. 13a
    #: scale churn; the default kills roughly half the targeted
    #: satellites over one hour.
    decay_acceleration: float = 5.0e5
    #: Failed satellites come back after this long (None = permanent).
    repair_delay_s: Optional[float] = 1500.0
    #: Regional jamming window over the UE cluster centroid.
    jam_start_s: float = 600.0
    jam_stop_s: float = 1500.0
    jam_radius_km: float = 1200.0
    #: Per-wireless-hop message loss for the stateful baseline's
    #: home-routed flows, outside and inside the jamming window.
    per_link_loss: float = 0.02
    jam_link_loss: float = 0.5
    #: ISL hops a home-routed message crosses to reach the gateway.
    path_hops: float = 6.0
    #: UE placement: (lat, lon) degree sites cycled over, jittered.
    #: None = the default hemisphere-ish spread below.
    ue_sites: Optional[Tuple[Tuple[float, float], ...]] = None
    ue_jitter_deg: float = 2.0
    #: Signaling arrival rate (procedures/s) the serving satellite's
    #: processor sees during recovery churn -- the load point at which
    #: COMPUTE_DEGRADE events stretch procedure latency (Fig. 8 made
    #: live on a derated platform).
    compute_load_per_s: float = 150.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require_finite(self)
        _require_positive(self, "horizon_s", "sample_interval_s")
        _require_count(self, "n_ues", 1)
        _require_non_negative(
            self, "decay_acceleration", "repair_delay_s", "jam_start_s",
            "jam_stop_s", "jam_radius_km", "path_hops", "ue_jitter_deg",
            "compute_load_per_s")
        _require_probability(self, "per_link_loss", "jam_link_loss")
        _require_sites(self, "ue_sites")
        _require_count(self, "seed", 0)


@dataclass(frozen=True)
class PacketProbeSpec:
    """A bulk Algorithm 1 wave probed through the faulted topology.

    After the churn horizon drains, the probe routes a seeded packet
    wave over whatever the fault schedule left standing -- dead
    satellites and torn ISLs included -- through the batch routing
    plane (:class:`~repro.topology.batch_routing.BatchGeoRouter`).
    The wave is routed in ONE vectorized call, so even a large probe
    adds milliseconds to a trial, and the batch plane's bit-exact
    equivalence with the scalar walk keeps the artifact byte-stable
    whether or not the compiled kernel is available.
    """

    packets: int = 256
    #: Route epoch in simulated seconds; ``None`` probes at the
    #: scenario horizon (the post-churn end state).
    t_s: Optional[float] = None
    seed: int = 7

    def __post_init__(self) -> None:
        _require_count(self, "packets", 1)
        _require_finite(self)
        _require_non_negative(self, "t_s")
        _require_count(self, "seed", 0)


def _run_packet_probe(system: SpaceCoreSystem, scenario: ChaosScenario,
                      probe: PacketProbeSpec) -> Dict:
    """Route the probe wave over the post-churn topology, summarised.

    Deterministic in (probe, scenario.seed); every float is rounded so
    the payload survives the golden-artifact byte contract.
    """
    import numpy as np

    from ..topology.batch_routing import BatchGeoRouter

    t = probe.t_s if probe.t_s is not None else scenario.horizon_s
    router = BatchGeoRouter(system.topology)
    constellation = system.topology.constellation
    rng = np.random.default_rng([probe.seed, scenario.seed])
    lat_band = math.radians(
        min(constellation.inclination_deg,
            180.0 - constellation.inclination_deg)) - 0.02
    src = rng.integers(0, constellation.total_satellites, probe.packets)
    lats = rng.uniform(-lat_band, lat_band, probe.packets)
    lons = rng.uniform(-math.pi, math.pi, probe.packets)
    result = router.route_batch(src, lats, lons, t)
    delivered = result.delivered
    n_ok = int(delivered.sum())
    return {
        "packets": probe.packets,
        "t_s": t,
        "delivered": n_ok,
        "degraded": int(result.degraded.sum()),
        "scalar_fallbacks": int(result.fallback.sum()),
        "mean_delay_ms": (round(float(
            result.delay_s[delivered].mean() * 1000.0), 9)
            if n_ok else None),
        "mean_hops": (round(float(result.hops[delivered].mean()), 9)
                      if n_ok else None),
    }


@dataclass
class SurvivalSample:
    """Fraction of initially-established sessions alive at ``t``."""

    t: float
    spacecore: float
    baseline: float


@dataclass
class ChaosAvailabilityResult:
    """Everything a chaos run produced, JSON-ready."""

    scenario: ChaosScenario
    fault_log: List[Tuple] = field(default_factory=list)
    samples: List[SurvivalSample] = field(default_factory=list)
    spacecore_outcomes: List[Tuple] = field(default_factory=list)
    spacecore_recovery_latencies: List[float] = field(default_factory=list)
    baseline_recovery_latencies: List[float] = field(default_factory=list)
    spacecore_lost: int = 0
    baseline_lost: int = 0
    n_sessions: int = 0
    #: Post-churn routability probe payload (None = no probe ran).
    packet_probe: Optional[Dict] = None

    @property
    def final_spacecore_survival(self) -> float:
        return self.samples[-1].spacecore if self.samples else 0.0

    @property
    def final_baseline_survival(self) -> float:
        return self.samples[-1].baseline if self.samples else 0.0

    def to_json(self) -> Dict:
        """The report-layer payload (both curves + latency samples).

        The ``packet_probe`` key appears only when a probe actually
        ran, so existing artifacts stay byte-identical.
        """
        payload = self._base_json()
        if self.packet_probe is not None:
            payload["packet_probe"] = self.packet_probe
        return payload

    def _base_json(self) -> Dict:
        return {
            "scenario": {
                "horizon_s": self.scenario.horizon_s,
                "n_ues": self.scenario.n_ues,
                "seed": self.scenario.seed,
                "jam_window_s": [self.scenario.jam_start_s,
                                 self.scenario.jam_stop_s],
            },
            "fault_log": [list(key) for key in self.fault_log],
            "curves": {
                "t_s": [s.t for s in self.samples],
                "spacecore_survival": [s.spacecore for s in self.samples],
                "baseline_survival": [s.baseline for s in self.samples],
            },
            "recovery_latency_s": {
                "spacecore": self.spacecore_recovery_latencies,
                "baseline": self.baseline_recovery_latencies,
            },
            "lost_sessions": {
                "spacecore": self.spacecore_lost,
                "baseline": self.baseline_lost,
            },
            "n_sessions": self.n_sessions,
            "spacecore_outcomes": [list(key)
                                   for key in self.spacecore_outcomes],
        }


#: A spread of terrestrial user locations (degrees) the scenario
#: samples from -- one hemisphere-ish cluster so a single jammer
#: plausibly covers a subset.
_UE_SITES = (
    (39.9, 116.4), (31.2, 121.5), (22.3, 114.2), (35.7, 139.7),
    (28.6, 77.2), (1.35, 103.8), (37.6, 127.0), (13.7, 100.5),
    (23.8, 90.4), (41.0, 28.9), (55.8, 37.6), (25.3, 51.5),
)


def _place_ues(system: SpaceCoreSystem, scenario: ChaosScenario):
    """Provision the scenario's subscribers around its sites, jittered."""
    rng = random.Random(scenario.seed)
    sites = scenario.ue_sites if scenario.ue_sites else _UE_SITES
    jitter = scenario.ue_jitter_deg
    ues = []
    for i in range(scenario.n_ues):
        lat, lon = sites[i % len(sites)]
        ues.append(system.provision_ue(lat + rng.uniform(-jitter, jitter),
                                       lon + rng.uniform(-jitter, jitter)))
    return ues


# ---------------------------------------------------------------------------
# Compute-degradation latency coupling (hardware model made live)
# ---------------------------------------------------------------------------

_PENALTY_FLOW_CACHE: Dict[str, Tuple[list, frozenset]] = {}


def _penalty_flow(system_kind: str) -> Tuple[list, frozenset]:
    """(flow, on-board roles) whose processing a derating stretches."""
    cached = _PENALTY_FLOW_CACHE.get(system_kind)
    if cached is None:
        from ..baselines.solutions import spacecore
        if system_kind == "spacecore":
            solution = spacecore()
            flow = solution.flow(ProcedureKind.SESSION_ESTABLISHMENT)
        else:
            solution = fiveg_ntn()
            flow = (solution.flow(ProcedureKind.INITIAL_REGISTRATION)
                    + solution.flow(ProcedureKind.SESSION_ESTABLISHMENT))
        cached = (flow, solution.on_board)
        _PENALTY_FLOW_CACHE[system_kind] = cached
    return cached


def compute_degradation_penalty_s(system_kind: str, factor: float,
                                  rate_per_s: float) -> float:
    """Extra procedure latency a derated onboard processor adds.

    The penalty is the difference between the M/M/1 procedure latency
    (:func:`~repro.hardware.queueing.procedure_latency`) on the rated
    Hardware-1 platform and on the same platform derated to ``factor``
    of its capacity, at the scenario's recovery signaling load.  At
    full capacity the penalty is exactly zero, so runs without
    ``COMPUTE_DEGRADE`` events are byte-identical to the pre-scenario
    behaviour.
    """
    if factor >= 1.0:
        return 0.0
    flow, on_board = _penalty_flow(system_kind)
    base = procedure_latency(RASPBERRY_PI_4, rate_per_s, flow,
                             on_board).total_s
    degraded = procedure_latency(RASPBERRY_PI_4.derated(factor),
                                 rate_per_s, flow, on_board).total_s
    return max(0.0, degraded - base)


def _component_labels(graph: nx.Graph) -> Dict[int, int]:
    """``node -> label``: equal labels iff same connected component."""
    return {node: label for label, component
            in enumerate(nx.connected_components(graph))
            for node in component}


class _StatefulBaseline:
    """A 5G NTN-style core under the same fault schedule.

    Serving-satellite state is authoritative on board, so a satellite
    death forces the full home-routed C1+C2 re-run: it succeeds only
    if (a) the new serving satellite still reaches a gateway over live
    ISLs and (b) every crossing message of the long flow survives the
    per-hop loss -- jammed windows push that loss up.  Retries follow
    the same NAS discipline as SpaceCore for a fair comparison.
    """

    def __init__(self, system: SpaceCoreSystem, scenario: ChaosScenario,
                 controller: ChaosController):
        self.system = system
        self.scenario = scenario
        self.controller = controller
        self.rng = random.Random(scenario.seed + 101)
        solution = fiveg_ntn()
        flow = solution.flow(ProcedureKind.SESSION_ESTABLISHMENT)
        reg = solution.flow(ProcedureKind.INITIAL_REGISTRATION)
        self.crossing_messages = (solution.crossing_messages(flow)
                                  + solution.crossing_messages(reg))
        self.local_messages = (len(flow) + len(reg)
                               - self.crossing_messages)
        self.assignments: Dict[str, int] = {}
        self.alive: Dict[str, bool] = {}
        self.recovery_latencies: List[float] = []
        self.lost = 0
        self._ue_by_supi: Dict[str, UserEquipment] = {}

    def establish_all(self, ues, t: float) -> None:
        for ue in ues:
            sat = self.system.live_serving_satellite_of(ue, t)
            supi = str(ue.supi)
            self.assignments[supi] = sat
            self.alive[supi] = sat >= 0

    # -- fault reaction ----------------------------------------------------------

    def on_fault(self, event) -> None:
        if event.kind is not FaultKind.SAT_FAIL:
            return
        dead = event.target[0]
        victims = [supi for supi, sat in self.assignments.items()
                   if sat == dead and self.alive.get(supi)]
        if not victims:
            return
        t = self.controller.sim.now + RLF_DETECTION_S
        # Faults cannot change inside this synchronous callback, so the
        # live ISL mesh -- and hence its connected components -- is
        # fixed for every victim and every NAS retry.  Label it once;
        # each attempt then asks only which gateways are covered at its
        # own retry time, the one thing that moves.
        graph = self.system.topology.snapshot_graph(t, include_ground=False)
        labels = _component_labels(graph)
        for supi in victims:
            self._reattach(supi, t, labels)

    def _crossing_loss(self) -> float:
        per_hop = (self.scenario.jam_link_loss
                   if self.controller.jamming_active()
                   else self.scenario.per_link_loss)
        return 1.0 - (1.0 - per_hop) ** self.scenario.path_hops

    def _gateway_reachable(self, sat: int, t: float,
                           labels: Dict[int, int]) -> bool:
        """Whether ``sat`` shares a live-ISL component with a gateway.

        ``labels`` maps every live satellite to its component label.
        Gateways are scanned in catalog order and the scan stops at the
        first covered one in ``sat``'s component, so on a connected
        mesh one access-satellite lookup usually answers.
        """
        label = labels.get(sat)  # None for -1 and dead satellites
        if label is None:
            return False
        topology = self.system.topology
        for _, station in topology.live_ground_stations():
            access = topology.station_access_satellite(station, t)
            if access >= 0 and labels.get(access) == label:
                return True
        return False

    def _reattach(self, supi: str, t: float,
                  labels: Dict[int, int]) -> None:
        """NAS-timed retries of the full home-routed procedure."""
        elapsed = 0.0
        for attempt in range(NAS_MAX_ATTEMPTS):
            now = t + elapsed
            sat = self._serving_at(supi, now)
            survival = (
                procedure_success_probability(self.local_messages,
                                              self.scenario.per_link_loss)
                * procedure_success_probability(self.crossing_messages,
                                                self._crossing_loss()))
            if (self._gateway_reachable(sat, now, labels)
                    and self.rng.random() < survival):
                self.assignments[supi] = sat
                self.recovery_latencies.append(
                    RLF_DETECTION_S + elapsed
                    + INMARSAT_REGISTRATION_DELAY_S
                    + compute_degradation_penalty_s(
                        "baseline", self.controller.min_compute_factor(),
                        self.scenario.compute_load_per_s))
                return
            backoff = min(NAS_RETRY_BACKOFF_BASE_S * (2.0 ** attempt),
                          NAS_RETRY_BACKOFF_CAP_S)
            elapsed += NAS_T3510_S + backoff
        self.alive[supi] = False
        self.assignments.pop(supi, None)
        self.lost += 1

    def _serving_at(self, supi: str, t: float) -> int:
        ue = self._ue_by_supi.get(supi)
        if ue is None:
            return -1
        return self.system.live_serving_satellite_of(ue, t)

    def bind_ues(self, ues) -> None:
        self._ue_by_supi = {str(ue.supi): ue for ue in ues}

    def alive_fraction(self) -> float:
        if not self.alive:
            return 0.0
        live = 0
        for supi, is_alive in self.alive.items():
            sat = self.assignments.get(supi)
            if (is_alive and sat is not None and sat >= 0
                    and self.system.topology.is_up(sat)):
                live += 1
        return live / len(self.alive)


def serving_blast_radius(system: SpaceCoreSystem, ues) -> Tuple[set, set]:
    """(serving satellites, serving + grid neighbours) of a population."""
    serving = {sat for sat in
               (system.live_serving_satellite_of(ue, 0.0) for ue in ues)
               if sat >= 0}
    blast_radius = set(serving)
    for sat in serving:
        blast_radius.update(system.topology.directional_neighbors(
            sat).values())
    return serving, blast_radius


def default_chaos_schedule(system: SpaceCoreSystem, ues,
                           scenario: ChaosScenario) -> FaultSchedule:
    """The stock churn mix: blast-radius decay + bursts + jamming.

    The scenario catalog (:mod:`repro.scenarios`) swaps this builder
    for scenario-specific compositions via the ``schedule_builder``
    hook of :func:`run_chaos_availability`.
    """
    serving, blast_radius = serving_blast_radius(system, ues)
    schedule = FaultSchedule()
    schedule.add_satellite_decay(
        sorted(blast_radius), scenario.horizon_s,
        acceleration=scenario.decay_acceleration,
        repair_delay_s=scenario.repair_delay_s, seed=scenario.seed)
    links = {frozenset((sat, nbr)) for sat in serving
             for nbr in system.topology.directional_neighbors(
                 sat).values()}
    schedule.add_link_bursts(
        [tuple(sorted(link)) for link in sorted(links, key=sorted)],
        scenario.horizon_s, seed=scenario.seed + 1)
    if (scenario.jam_radius_km > 0
            and scenario.jam_stop_s > scenario.jam_start_s):
        ue_lats = [ue.lat for ue in ues]
        ue_lons = [ue.lon for ue in ues]
        from ..faults.attacks import JammingAttack
        jammer = JammingAttack(
            sum(ue_lats) / len(ue_lats),
            sum(ue_lons) / len(ue_lons),
            radius_km=scenario.jam_radius_km)
        schedule.add_jamming_window(jammer, scenario.jam_start_s,
                                    scenario.jam_stop_s)
    return schedule


def run_chaos_availability(
        constellation: Optional[Constellation] = None,
        scenario: Optional[ChaosScenario] = None,
        metrics=None, tracer=None,
        schedule_builder=None,
        packet_probe: Optional[PacketProbeSpec] = None,
        ) -> ChaosAvailabilityResult:
    """One seeded churn run: SpaceCore vs the stateful baseline.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) and
    ``tracer`` (a :class:`~repro.obs.tracing.Tracer`, which gets the
    simulator's clock injected) instrument the run without changing
    its behaviour: the engine, chaos controller and recovery machinery
    all share the same sinks.  ``schedule_builder`` --
    ``(system, ues, scenario) -> FaultSchedule`` -- replaces the
    default churn mix (:func:`default_chaos_schedule`) with a
    scenario-specific fault composition.  ``packet_probe`` routes a
    seeded bulk wave through whatever topology the churn left behind
    (see :class:`PacketProbeSpec`); it runs after the horizon drains
    and its router keeps its own metrics out of ``metrics`` so probed
    and unprobed runs share identical metric registries.
    """
    scenario = scenario if scenario is not None else ChaosScenario()
    system = SpaceCoreSystem(constellation
                             if constellation is not None else starlink())
    sim = Simulator()
    if metrics is not None:
        sim.attach_metrics(metrics)
    if tracer is not None:
        tracer.set_clock(lambda: sim.now)
    controller = ChaosController(sim, system.topology, metrics=metrics,
                                 tracer=tracer)
    resilient = ResilientSpaceCore(system, metrics=metrics,
                                   tracer=tracer)
    baseline = _StatefulBaseline(system, scenario, controller)

    # -- population + initial attach at t=0 -------------------------------------
    ues = _place_ues(system, scenario)
    for ue in ues:
        resilient.register(ue, 0.0)
        resilient.establish_session(ue, 0.0)
    baseline.bind_ues(ues)
    baseline.establish_all(ues, 0.0)

    # -- fault schedule -----------------------------------------------------------
    if schedule_builder is None:
        schedule = default_chaos_schedule(system, ues, scenario)
    else:
        schedule = schedule_builder(system, ues, scenario)

    resilient.attach_chaos(controller)
    controller.subscribe(baseline.on_fault)
    controller.arm(schedule)

    # -- survival sampling --------------------------------------------------------
    result = ChaosAvailabilityResult(scenario, n_sessions=len(ues))

    def sample() -> None:
        alive = sum(1 for ue in ues if resilient.session_alive(ue))
        result.samples.append(SurvivalSample(
            sim.now, alive / len(ues), baseline.alive_fraction()))

    steps = int(scenario.horizon_s / scenario.sample_interval_s)
    for k in range(steps + 1):
        sim.schedule_at(k * scenario.sample_interval_s, sample)

    sim.run(until=scenario.horizon_s)

    # -- harvest ------------------------------------------------------------------
    result.fault_log = controller.log_keys()
    result.spacecore_outcomes = resilient.outcome_keys()
    result.spacecore_recovery_latencies = [
        RLF_DETECTION_S + o.total_delay_s + SPACECORE_LOCAL_EXCHANGE_S
        + compute_degradation_penalty_s(
            "spacecore",
            controller.compute_factor_at(o.started_at + o.total_delay_s),
            scenario.compute_load_per_s)
        for o in resilient.outcomes
        if o.procedure == "recovery" and o.completed]
    result.baseline_recovery_latencies = baseline.recovery_latencies
    result.spacecore_lost = len(resilient.lost_sessions)
    result.baseline_lost = baseline.lost
    if packet_probe is not None:
        result.packet_probe = _run_packet_probe(system, scenario,
                                                packet_probe)
    return result


def write_chaos_report(path: str,
                       result: ChaosAvailabilityResult) -> None:
    """Emit the JSON artifact the report layer consumes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json(), fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Sharded Monte Carlo over seeds
# ---------------------------------------------------------------------------

def _chaos_trial(work) -> Dict:
    """One Monte Carlo shard: a fully seeded churn run, JSON payload.

    Module-level so worker processes can unpickle it; returns plain
    dicts so the parent never needs live simulator objects back.  The
    scenario and constellation ship once per worker via the shared
    registry, so a task pickles two integers, not a topology.
    """
    trial, base_seed = work
    scenario = get_shared("chaos:scenario")
    constellation = get_shared("chaos:constellation")
    trial_scenario = replace(
        scenario, seed=seed_for(base_seed, f"chaos-trial:{trial}"))
    result = run_chaos_availability(constellation=constellation,
                                    scenario=trial_scenario)
    payload = result.to_json()
    payload["trial"] = trial
    return payload


@dataclass
class ChaosMonteCarlo:
    """Per-trial payloads plus the aggregate survival summary.

    The JSON form contains nothing about the execution medium (worker
    count, timing), so ``--workers 1`` and ``--workers N`` artifacts
    compare bit-for-bit.
    """

    base_seed: int
    trials: List[Dict] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    def _finals(self, system: str) -> List[float]:
        return [t["curves"][f"{system}_survival"][-1]
                for t in self.trials if t["curves"][f"{system}_survival"]]

    def summary(self) -> Dict:
        """Across-trial aggregates of the survival story."""
        sc, base = self._finals("spacecore"), self._finals("baseline")
        return {
            "n_trials": self.n_trials,
            "spacecore_mean_survival": sum(sc) / len(sc) if sc else 0.0,
            "spacecore_min_survival": min(sc) if sc else 0.0,
            "baseline_mean_survival": (sum(base) / len(base)
                                       if base else 0.0),
            "baseline_min_survival": min(base) if base else 0.0,
            "spacecore_lost": sum(t["lost_sessions"]["spacecore"]
                                  for t in self.trials),
            "baseline_lost": sum(t["lost_sessions"]["baseline"]
                                 for t in self.trials),
            "faults_injected": sum(len(t["fault_log"])
                                   for t in self.trials),
        }

    def to_json(self) -> Dict:
        """The Monte Carlo artifact: base seed, summary, every trial."""
        return {
            "base_seed": self.base_seed,
            "summary": self.summary(),
            "trials": self.trials,
        }


def run_chaos_trials(n_trials: int = 8, base_seed: int = 0,
                     scenario: Optional[ChaosScenario] = None,
                     constellation: Optional[Constellation] = None,
                     workers: Optional[int] = None) -> ChaosMonteCarlo:
    """Monte Carlo churn: ``n_trials`` independent seeded runs.

    Trial ``k`` runs the scenario with seed
    ``seed_for(base_seed, "chaos-trial:k")`` -- derivation happens
    identically whether the trials execute serially or sharded across
    a process pool, and results are assembled by trial index, so the
    artifact is bit-identical for any worker count.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    scenario = scenario if scenario is not None else ChaosScenario()
    work = [(trial, base_seed) for trial in range(n_trials)]
    return ChaosMonteCarlo(
        base_seed=base_seed,
        trials=run_sharded(_chaos_trial, work, workers=workers,
                           shared={"chaos:scenario": scenario,
                                   "chaos:constellation": constellation},
                           label="chaos.monte_carlo"))


def write_monte_carlo_report(path: str, result: ChaosMonteCarlo) -> None:
    """Emit the Monte Carlo JSON artifact (bit-stable across workers)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json(), fh, indent=2, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    """Stand-alone entry point: run the default scenario, write JSON."""
    import argparse
    parser = argparse.ArgumentParser(
        description="chaos availability: session survival under churn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ues", type=int, default=24)
    parser.add_argument("--horizon", type=float, default=3600.0)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--output", default="CHAOS_availability.json")
    args = parser.parse_args(argv)
    scenario = ChaosScenario(seed=args.seed, n_ues=args.ues,
                             horizon_s=args.horizon)
    if args.trials > 1:
        mc = run_chaos_trials(n_trials=args.trials, base_seed=args.seed,
                              scenario=scenario, workers=args.workers)
        write_monte_carlo_report(args.output, mc)
        summary = mc.summary()
        print(f"monte carlo: {args.trials} trials, "
              f"{summary['faults_injected']} faults injected")
        print(f"mean survival: SpaceCore "
              f"{summary['spacecore_mean_survival']:.3f} vs baseline "
              f"{summary['baseline_mean_survival']:.3f}")
        print(f"wrote {args.output}")
        return 0
    result = run_chaos_availability(scenario=scenario)
    write_chaos_report(args.output, result)
    print(f"faults injected: {len(result.fault_log)}")
    print(f"final survival: SpaceCore "
          f"{result.final_spacecore_survival:.3f} vs baseline "
          f"{result.final_baseline_survival:.3f}")
    print(f"lost sessions: SpaceCore {result.spacecore_lost}, "
          f"baseline {result.baseline_lost}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
