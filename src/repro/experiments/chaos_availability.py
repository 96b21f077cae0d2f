"""Session survival under injected churn: the Fig. 13/14 story, live.

The offline availability sweep (:mod:`.availability`) multiplies
analytic survival probabilities; this experiment instead *runs* a
day-in-the-life segment on the event engine with a
:class:`~repro.faults.chaos.ChaosController` injecting the faults a
:class:`ChaosSpec` declares -- by default (:data:`STOCK_CHURN`)
satellite deaths, Gilbert-Elliott link bursts, and a regional jamming
window; the scenario catalog (:mod:`repro.scenarios`) adds storms,
gateway outages and compute derating through the same
:func:`build_schedule` -- and measures what actually happens to
established sessions:

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
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..baselines.solutions import fiveg_ntn
from ..constants import (
    INMARSAT_REGISTRATION_DELAY_S,
    JAMMED_LINK_LOSS,
    NAS_MAX_ATTEMPTS,
    NAS_T3510_S,
    PER_LINK_LOSS,
    RLF_DETECTION_S,
)
from ..core import ResilientSpaceCore, SpaceCoreSystem
from ..core.robustness import nas_backoff_s
from ..faults.chaos import ChaosController, FaultKind, FaultSchedule
from ..faults.failures import crossing_loss, procedure_success_probability
from ..fiveg.messages import ProcedureKind
from ..fiveg.ue import UserEquipment
from ..hardware.model import RASPBERRY_PI_4
from ..hardware.queueing import procedure_latency
from ..obs import MetricsRegistry, Tracer
from ..orbits.constellation import Constellation, starlink
from ..orbits.coordinates import central_angle
from ..runtime.parallel import get_shared, run_sharded, seed_for
from ..sim.engine import Simulator

if TYPE_CHECKING:
    import networkx as nx

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
    _require_integer(f"{type(spec).__name__}.{name}", getattr(spec, name),
                     minimum)


def _require_integer(label: str, value, minimum: int) -> None:
    """:func:`_require_count` for a value that is not a spec field."""
    if not (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= minimum):
        raise ValueError(f"{label} must be an integer >= {minimum}, "
                         f"got {value!r}")


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
class ChaosSpec:
    """Which fault processes run, composed from seeded primitives.

    Every window is ``[start_s, stop_s)`` in simulated seconds; a
    degenerate window (``stop <= start``) disables that fault source,
    so the zero-valued default spec injects nothing.
    """

    # -- background decay churn (Fig. 13a hazard, accelerated) -------------
    decay_acceleration: float = 0.0      # 0 = no decay process
    repair_delay_s: Optional[float] = 1500.0

    # -- Gilbert-Elliott ISL weather (Fig. 13b) ----------------------------
    link_bursts: bool = False
    link_p_good_to_bad: float = 0.01
    link_p_bad_to_good: float = 0.2

    # -- regional jamming --------------------------------------------------
    jam_start_s: float = 0.0
    jam_stop_s: float = 0.0
    jam_radius_km: float = 0.0

    # -- mass handover storm (terminator crossing) -------------------------
    storm_start_s: float = 0.0
    storm_stop_s: float = 0.0
    storm_repair_delay_s: float = 120.0

    # -- regional ground-station outage ------------------------------------
    gs_outage_start_s: float = 0.0
    gs_outage_stop_s: float = 0.0
    gs_outage_fraction: float = 0.0      # fraction of gateways, by proximity

    # -- onboard-compute degradation ---------------------------------------
    compute_start_s: float = 0.0
    compute_stop_s: float = 0.0
    compute_factor: float = 1.0          # remaining capacity (1.0 = none)
    compute_fraction: float = 1.0        # fraction of serving satellites

    def __post_init__(self) -> None:
        _require_finite(self)
        _require_non_negative(
            self, "decay_acceleration", "repair_delay_s", "jam_start_s",
            "jam_stop_s", "jam_radius_km", "storm_start_s", "storm_stop_s",
            "storm_repair_delay_s", "gs_outage_start_s", "gs_outage_stop_s",
            "compute_start_s", "compute_stop_s")
        _require_probability(self, "link_p_good_to_bad",
                             "link_p_bad_to_good")
        if not 0.0 <= self.gs_outage_fraction <= 1.0:
            raise ValueError("gs outage fraction must be in [0, 1]")
        if not 0.0 < self.compute_factor <= 1.0:
            raise ValueError("compute factor must be in (0, 1]")
        if not 0.0 < self.compute_fraction <= 1.0:
            raise ValueError("compute fraction must be in (0, 1]")

    @property
    def storms(self) -> bool:
        return self.storm_stop_s > self.storm_start_s

    @property
    def jams(self) -> bool:
        return self.jam_radius_km > 0 and self.jam_stop_s > self.jam_start_s

    @property
    def downs_ground_stations(self) -> bool:
        return (self.gs_outage_fraction > 0
                and self.gs_outage_stop_s > self.gs_outage_start_s)

    @property
    def degrades_compute(self) -> bool:
        return (self.compute_factor < 1.0
                and self.compute_stop_s > self.compute_start_s)


#: The stock churn mix of ``repro chaos``: blast-radius decay compressed
#: so one hour kills roughly half the targeted satellites, repaired
#: after 1500 s, GE link bursts, and a regional jamming window over the
#: UE cluster centroid.
STOCK_CHURN = ChaosSpec(decay_acceleration=5e5, repair_delay_s=1500.0,
                        link_bursts=True, jam_start_s=600.0,
                        jam_stop_s=1500.0, jam_radius_km=1200.0)


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


@dataclass(frozen=True)
class ChaosScenario:
    """Knobs of one seeded churn run.

    Validated on construction, like the scenario specs that build it:
    a NaN horizon, a negative seed or a zero sample interval raises
    ``ValueError`` naming the field.
    """

    horizon_s: float = 3600.0
    sample_interval_s: float = 120.0
    n_ues: int = 24
    #: The fault processes :func:`build_schedule` composes.
    chaos: ChaosSpec = STOCK_CHURN
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
    #: Post-churn routability probe (None = no probe runs).
    packet_probe: Optional[PacketProbeSpec] = None

    def __post_init__(self) -> None:
        _require_finite(self)
        _require_positive(self, "horizon_s", "sample_interval_s")
        _require_count(self, "n_ues", 1)
        _require_non_negative(self, "ue_jitter_deg", "compute_load_per_s")
        _require_sites(self, "ue_sites")
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
    #: The run's own metrics snapshot and sim-time spans, as plain
    #: data; neither is part of :meth:`to_json`.
    metrics_snapshot: Dict = field(default_factory=dict)
    spans: List[Dict] = field(default_factory=list)

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
                "jam_window_s": [self.scenario.chaos.jam_start_s,
                                 self.scenario.chaos.jam_stop_s],
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
    # Function-local, like ``GridTopology.snapshot_graph``'s.
    import networkx as nx
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
        graph = self.system.topology.snapshot_graph(t)
        labels = _component_labels(graph)
        for supi in victims:
            self._reattach(supi, t, labels)

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
            per_hop = (JAMMED_LINK_LOSS if self.controller.jamming_active()
                       else PER_LINK_LOSS)
            survival = (
                procedure_success_probability(self.local_messages,
                                              PER_LINK_LOSS)
                * procedure_success_probability(self.crossing_messages,
                                                crossing_loss(per_hop)))
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
            elapsed += NAS_T3510_S + nas_backoff_s(attempt)
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


def build_schedule(chaos: ChaosSpec, system: SpaceCoreSystem, ues,
                   horizon_s: float, seed: int) -> FaultSchedule:
    """Compose the spec's declared fault processes into one schedule.

    Deterministic in (chaos, horizon_s, seed): target selection uses
    only sorted topology-derived sets and the seed, never iteration
    order of hashes.  The :class:`~repro.faults.chaos.ChaosController`
    dedupes by event key, so overlapping windows compose safely.
    """
    serving, blast_radius = serving_blast_radius(system, ues)
    targets = sorted(serving)
    schedule = FaultSchedule()

    if chaos.decay_acceleration > 0:
        schedule.add_satellite_decay(
            sorted(blast_radius), horizon_s,
            acceleration=chaos.decay_acceleration,
            repair_delay_s=chaos.repair_delay_s, seed=seed)

    if chaos.link_bursts:
        links = {frozenset((sat, nbr)) for sat in serving
                 for nbr in system.topology.directional_neighbors(
                     sat).values()}
        schedule.add_link_bursts(
            [tuple(sorted(link)) for link in sorted(links, key=sorted)],
            horizon_s,
            p_good_to_bad=chaos.link_p_good_to_bad,
            p_bad_to_good=chaos.link_p_bad_to_good,
            seed=seed + 1)

    if chaos.storms and targets:
        schedule.add_handover_storm(
            targets, chaos.storm_start_s,
            min(chaos.storm_stop_s, horizon_s),
            repair_delay_s=chaos.storm_repair_delay_s)

    if chaos.jams:
        from ..faults.attacks import JammingAttack
        jammer = JammingAttack(
            sum(ue.lat for ue in ues) / len(ues),
            sum(ue.lon for ue in ues) / len(ues),
            radius_km=chaos.jam_radius_km)
        schedule.add_jamming_window(jammer, chaos.jam_start_s,
                                    chaos.jam_stop_s)

    if chaos.downs_ground_stations:
        lat = sum(ue.lat for ue in ues) / len(ues)
        lon = sum(ue.lon for ue in ues) / len(ues)
        stations = system.topology.ground_stations
        by_proximity = sorted(
            range(len(stations)),
            key=lambda i: (central_angle(lat, lon, stations[i].lat,
                                         stations[i].lon), i))
        count = max(1, math.ceil(chaos.gs_outage_fraction * len(stations)))
        schedule.add_ground_station_outage(
            sorted(by_proximity[:count]),
            chaos.gs_outage_start_s, chaos.gs_outage_stop_s)

    if chaos.degrades_compute and targets:
        count = max(1, math.ceil(chaos.compute_fraction * len(targets)))
        schedule.add_compute_degradation(
            targets[:count], chaos.compute_start_s,
            min(chaos.compute_stop_s, horizon_s),
            factor=chaos.compute_factor)

    return schedule


def run_chaos_availability(
        constellation: Optional[Constellation] = None,
        scenario: Optional[ChaosScenario] = None,
        ) -> ChaosAvailabilityResult:
    """One seeded churn run: SpaceCore vs the stateful baseline.

    :func:`build_schedule` turns ``scenario.chaos`` into the fault
    schedule.  The run always records into its own
    :class:`~repro.obs.metrics.MetricsRegistry` and sim-clocked
    :class:`~repro.obs.tracing.Tracer`, shared by the engine, the
    chaos controller and the recovery machinery; the result carries
    them as plain data (``metrics_snapshot``, ``spans``) outside
    :meth:`ChaosAvailabilityResult.to_json`, and recording changes no
    outcome.  ``scenario.packet_probe`` routes a seeded bulk wave
    through whatever topology the churn left behind (see
    :class:`PacketProbeSpec`) after the horizon drains; its router
    keeps its own metrics, so probed and unprobed runs record the same
    snapshot.
    """
    scenario = scenario if scenario is not None else ChaosScenario()
    system = SpaceCoreSystem(constellation
                             if constellation is not None else starlink())
    sim = Simulator()
    metrics = MetricsRegistry()
    tracer = Tracer(lambda: sim.now)
    sim.attach_metrics(metrics)
    controller = ChaosController(sim, system.topology, metrics=metrics,
                                 tracer=tracer)
    resilient = ResilientSpaceCore(system, metrics=metrics,
                                   tracer=tracer)
    baseline = _StatefulBaseline(system, scenario, controller)

    # -- population + initial attach at t=0 -------------------------------------
    ues = _place_ues(system, scenario)
    for ue in ues:
        resilient.register(ue)
        resilient.establish_session(ue)
    baseline.bind_ues(ues)
    baseline.establish_all(ues, 0.0)

    # -- fault schedule -----------------------------------------------------------
    schedule = build_schedule(scenario.chaos, system, ues,
                              scenario.horizon_s, scenario.seed)

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
    if scenario.packet_probe is not None:
        result.packet_probe = _run_packet_probe(system, scenario,
                                                scenario.packet_probe)
    result.metrics_snapshot = metrics.snapshot()
    result.spans = tracer.to_dicts()
    return result


# ---------------------------------------------------------------------------
# Sharded Monte Carlo over seeds
# ---------------------------------------------------------------------------

def _chaos_trial(scenario: ChaosScenario) -> ChaosAvailabilityResult:
    """One Monte Carlo shard: an already-seeded run.

    Module-level so worker processes can unpickle it; the result is
    plain data.  The constellation ships once per worker via the shared
    registry, so a task pickles one small frozen scenario.
    """
    return run_chaos_availability(get_shared("chaos:constellation"),
                                  scenario)


def run_seeded_trials(scenarios: List[ChaosScenario],
                      constellation: Optional[Constellation], *,
                      workers: Optional[int],
                      label: str) -> List[ChaosAvailabilityResult]:
    """Run already-seeded scenarios on the sharded runtime, in order.

    The one dispatch of every chaos and scenario Monte Carlo: results
    come back by list index, so the caller's artifact is identical for
    any worker count.
    """
    return run_sharded(_chaos_trial, scenarios, workers=workers,
                       shared={"chaos:constellation": constellation},
                       label=label)


@dataclass
class ChaosMonteCarlo:
    """Every trial's run plus the aggregate survival summary.

    The JSON form contains nothing about the execution medium (worker
    count, timing), so ``--workers 1`` and ``--workers N`` artifacts
    compare bit-for-bit.  Each run's metrics snapshot and sim-time
    spans stay on its result, outside :meth:`to_json`.
    """

    base_seed: int
    results: List[ChaosAvailabilityResult] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.results)

    def summary(self) -> Dict:
        """Across-trial aggregates of the survival story."""
        sc = [r.final_spacecore_survival for r in self.results]
        base = [r.final_baseline_survival for r in self.results]
        return {
            "n_trials": self.n_trials,
            "spacecore_mean_survival": sum(sc) / len(sc) if sc else 0.0,
            "spacecore_min_survival": min(sc) if sc else 0.0,
            "baseline_mean_survival": (sum(base) / len(base)
                                       if base else 0.0),
            "baseline_min_survival": min(base) if base else 0.0,
            "spacecore_lost": sum(r.spacecore_lost for r in self.results),
            "baseline_lost": sum(r.baseline_lost for r in self.results),
            "faults_injected": sum(len(r.fault_log) for r in self.results),
        }

    def to_json(self) -> Dict:
        """The Monte Carlo artifact: base seed, summary, every trial."""
        return {
            "base_seed": self.base_seed,
            "summary": self.summary(),
            "trials": [{**result.to_json(), "trial": trial}
                       for trial, result in enumerate(self.results)],
        }


def run_chaos_trials(n_trials: int = 8, base_seed: int = 0,
                     scenario: Optional[ChaosScenario] = None,
                     constellation: Optional[Constellation] = None,
                     workers: Optional[int] = None) -> ChaosMonteCarlo:
    """Monte Carlo churn: ``n_trials`` independent seeded runs.

    Trial ``k`` runs the scenario with seed
    ``seed_for(base_seed, "chaos-trial:k")``, derived in the parent
    before dispatch, and results are assembled by trial index, so the
    artifact is bit-identical for any worker count.
    """
    _require_integer("n_trials", n_trials, 1)
    scenario = scenario if scenario is not None else ChaosScenario()
    scenarios = [replace(scenario,
                         seed=seed_for(base_seed, f"chaos-trial:{trial}"))
                 for trial in range(n_trials)]
    return ChaosMonteCarlo(base_seed, run_seeded_trials(
        scenarios, constellation, workers=workers,
        label="chaos.monte_carlo"))


def write_chaos_report(
        path: str,
        result: Union[ChaosAvailabilityResult, ChaosMonteCarlo]) -> None:
    """Emit a run's or a Monte Carlo's ``to_json()`` as sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json(), fh, indent=2, sort_keys=True)
