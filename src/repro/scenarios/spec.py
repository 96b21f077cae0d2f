"""Declarative resilience scenarios: what to stress, never how to run.

A :class:`ScenarioSpec` names one reproducible resilience run: a
constellation, a subscriber population, a seeded chaos composition,
and the SLO budget the run is held to.  Specs are frozen, purely
declarative data -- the execution engine (:mod:`.engine`) turns one
into seeded :class:`~repro.experiments.chaos_availability.ChaosScenario`
trials and a :class:`~repro.faults.chaos.FaultSchedule`, and nothing
about the execution medium (worker count, host, wall time) can leak
back into the spec or its artifact.

The declarative split mirrors chaos-engineering practice: the catalog
(:mod:`.catalog`) is a reviewable inventory of *named* failure
hypotheses, each pinned by a golden artifact, instead of one-off
experiment scripts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from ..experiments.chaos_availability import ChaosScenario, PacketProbeSpec
from .slo import SLOBudget


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


@dataclass(frozen=True)
class PopulationSpec:
    """Who is attached when the faults start."""

    n_ues: int = 12
    #: (lat, lon) degree sites cycled over, jittered; None = the
    #: chaos experiment's default hemisphere-ish spread.
    sites: Optional[Tuple[Tuple[float, float], ...]] = None
    jitter_deg: float = 2.0
    #: Signaling load (procedures/s) the serving processor sees during
    #: recovery churn -- where COMPUTE_DEGRADE events bite.
    compute_load_per_s: float = 150.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.n_ues < 1:
            raise ValueError("population needs at least one UE")
        _require_non_negative(self, "jitter_deg", "compute_load_per_s")
        for site in self.sites or ():
            lat, lon = site
            if not (math.isfinite(lat) and math.isfinite(lon)
                    and abs(lat) <= 90.0 and abs(lon) <= 180.0):
                raise ValueError(
                    f"PopulationSpec.sites entry {site!r} must be finite "
                    f"degrees with |lat| <= 90 and |lon| <= 180")


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
        for name in ("link_p_good_to_bad", "link_p_bad_to_good"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
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


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, reproducible resilience run with an SLO budget."""

    name: str
    title: str
    description: str
    constellation: str = "Starlink"      # Table 1 name (orbits.by_name)
    horizon_s: float = 1800.0
    sample_interval_s: float = 120.0
    population: PopulationSpec = field(default_factory=PopulationSpec)
    chaos: ChaosSpec = field(default_factory=ChaosSpec)
    slo: SLOBudget = field(default_factory=SLOBudget)
    n_trials: int = 2
    base_seed: int = 0
    #: Optional post-churn routability probe: a seeded bulk packet
    #: wave through the batch routing plane over whatever topology the
    #: fault schedule left standing.  ``None`` (the default) keeps the
    #: trial payload -- and every committed golden -- byte-identical.
    packet_probe: Optional[PacketProbeSpec] = None

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError("scenario name must be a non-empty slug")
        _require_finite(self)
        if self.horizon_s <= 0 or self.sample_interval_s <= 0:
            raise ValueError("horizon and sample interval must be positive")
        if self.n_trials < 1:
            raise ValueError("scenario needs at least one trial")

    def chaos_scenario(self, seed: int) -> ChaosScenario:
        """The seeded per-trial knob set the chaos experiment runs.

        Fault *composition* does not ride here -- the engine builds the
        :class:`~repro.faults.chaos.FaultSchedule` from :attr:`chaos`
        via its ``schedule_builder`` hook -- but the baseline's loss
        model reacts to the jamming window, so those knobs carry over.
        """
        return ChaosScenario(
            horizon_s=self.horizon_s,
            sample_interval_s=self.sample_interval_s,
            n_ues=self.population.n_ues,
            decay_acceleration=self.chaos.decay_acceleration,
            repair_delay_s=self.chaos.repair_delay_s,
            jam_start_s=self.chaos.jam_start_s,
            jam_stop_s=self.chaos.jam_stop_s,
            jam_radius_km=self.chaos.jam_radius_km,
            ue_sites=self.population.sites,
            ue_jitter_deg=self.population.jitter_deg,
            compute_load_per_s=self.population.compute_load_per_s,
            seed=seed)

    def describe(self) -> Dict:
        """The spec echo embedded in artifacts (pure data, sortable)."""
        chaos = {f.name: getattr(self.chaos, f.name)
                 for f in fields(self.chaos)}
        payload = self._base_describe(chaos)
        if self.packet_probe is not None:
            payload["packet_probe"] = {
                f.name: getattr(self.packet_probe, f.name)
                for f in fields(self.packet_probe)}
        return payload

    def _base_describe(self, chaos: Dict) -> Dict:
        return {
            "name": self.name,
            "title": self.title,
            "constellation": self.constellation,
            "horizon_s": self.horizon_s,
            "sample_interval_s": self.sample_interval_s,
            "population": {
                "n_ues": self.population.n_ues,
                "sites": ([list(site) for site in self.population.sites]
                          if self.population.sites else None),
                "jitter_deg": self.population.jitter_deg,
                "compute_load_per_s": self.population.compute_load_per_s,
            },
            "chaos": chaos,
            "slo": self.slo.describe(),
            "n_trials": self.n_trials,
            "base_seed": self.base_seed,
        }
