"""Declarative resilience scenarios: what to stress, never how to run.

A :class:`ScenarioSpec` names one reproducible resilience run: a
constellation, a subscriber population, a seeded chaos composition
(:class:`~repro.experiments.chaos_availability.ChaosSpec`), and the
SLO budget the run is held to.  Specs are frozen, purely declarative
data -- the execution engine (:mod:`.engine`) turns one into seeded
:class:`~repro.experiments.chaos_availability.ChaosScenario` trials,
whose run builds the :class:`~repro.faults.chaos.FaultSchedule` from
the spec's ``ChaosSpec``, and nothing about the execution medium
(worker count, host, wall time) can leak back into the spec or its
artifact.

The declarative split mirrors chaos-engineering practice: the catalog
(:mod:`.catalog`) is a reviewable inventory of *named* failure
hypotheses, each pinned by a golden artifact, instead of one-off
experiment scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from ..experiments.chaos_availability import (
    ChaosScenario,
    ChaosSpec,
    PacketProbeSpec,
    _require_finite,
    _require_count,
    _require_non_negative,
    _require_positive,
    _require_sites,
)
from .slo import SLOBudget


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
        _require_count(self, "n_ues", 1)
        _require_non_negative(self, "jitter_deg", "compute_load_per_s")
        _require_sites(self, "sites")


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
        _require_positive(self, "horizon_s", "sample_interval_s")
        _require_count(self, "n_trials", 1)
        _require_count(self, "base_seed", 0)

    def chaos_scenario(self, seed: int) -> ChaosScenario:
        """The seeded per-trial knob set the chaos experiment runs.

        :attr:`chaos` rides along unchanged: the run's one
        :func:`~repro.experiments.chaos_availability.build_schedule`
        composes the :class:`~repro.faults.chaos.FaultSchedule` from
        it, and the baseline's loss model reacts to its jamming window.
        """
        return ChaosScenario(
            horizon_s=self.horizon_s,
            sample_interval_s=self.sample_interval_s,
            n_ues=self.population.n_ues,
            chaos=self.chaos,
            ue_sites=self.population.sites,
            ue_jitter_deg=self.population.jitter_deg,
            compute_load_per_s=self.population.compute_load_per_s,
            seed=seed,
            packet_probe=self.packet_probe)

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
