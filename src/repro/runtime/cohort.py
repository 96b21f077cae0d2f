"""Vectorized UE-cohort signaling engine.

The per-UE emulation (:class:`repro.sim.emulation.NeighborhoodEmulation`)
schedules one simulator event per session arrival, release, and pass
sweep -- O(users x events) work that tops out around 10^2 UEs.  The
paper's load points, though, are population-scale: a serving satellite
carries 2K-30K users and the constellation carries millions.  This
engine gets there by the standard large-population move: group the
``n_ues`` users into ``n_cohorts`` statistically identical cohorts and
sample each cohort's *event counts* directly from the arrival
processes with numpy, then apply per-message costs to whole cohorts at
once.  A 1M-UE load point is O(cohorts), not O(users).

The event processes mirror ``Solution.procedure_rates_per_user``
exactly (sessions every ~106.9 s, handovers/mobility registrations per
coverage pass, initial registrations at power-cycle scale), so the
engine's measured per-UE rates cross-validate against both the
analytic arithmetic and the per-UE emulation.  Runs are seeded and
bit-reproducible for a fixed (seed, n_cohorts) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..constants import RRC_INACTIVITY_TIMEOUT_S, SESSION_INTERARRIVAL_S
from ..fiveg.messages import ProcedureKind
from ..obs.metrics import MetricsRegistry
from ..orbits.coverage import mean_dwell_time_s
from .parallel import seed_for

#: Default cohort count: fine enough that Poisson sampling noise per
#: cohort stays realistic, coarse enough that 1M UEs stay trivial.
DEFAULT_COHORTS = 256


@dataclass
class CohortStats:
    """Counters of one cohort-engine run (per-UE emulation's shape)."""

    duration_s: float = 0.0
    ue_count: int = 0
    n_cohorts: int = 0
    sessions_attempted: int = 0
    sessions_established: int = 0
    releases: int = 0
    handovers: int = 0
    mobility_registrations: int = 0
    initial_registrations: int = 0
    signaling_messages: int = 0
    satellite_messages: int = 0
    crossing_messages: int = 0
    events_by_procedure: Dict[str, int] = field(default_factory=dict)

    @property
    def events_total(self) -> int:
        """Procedure events the population generated."""
        return sum(self.events_by_procedure.values())

    @property
    def session_rate_per_ue(self) -> float:
        """Measured establishments per UE-second."""
        if not self.duration_s or not self.ue_count:
            return 0.0
        return self.sessions_established / (self.duration_s
                                            * self.ue_count)

    @property
    def events_per_ue_s(self) -> float:
        if not self.duration_s or not self.ue_count:
            return 0.0
        return self.events_total / (self.duration_s * self.ue_count)


class UECohortEngine:
    """One population-scale signaling load point, O(cohorts).

    ``solution`` supplies the procedure mix and per-procedure message
    flows (default: SpaceCore); the dwell time is the constellation's
    mean pass duration, via the shard-local cache.
    """

    def __init__(self, constellation, n_ues: int = 10_000,
                 solution=None, seed: int = 0,
                 n_cohorts: int = DEFAULT_COHORTS,
                 session_interval_s: float = SESSION_INTERARRIVAL_S,
                 rrc_timeout_s: float = RRC_INACTIVITY_TIMEOUT_S,
                 metrics: Optional[MetricsRegistry] = None):
        if n_ues < 1:
            raise ValueError("need at least one UE")
        if n_cohorts < 1:
            raise ValueError("need at least one cohort")
        if session_interval_s <= 0:
            raise ValueError("session interval must be positive")
        if solution is None:
            from ..baselines.solutions import spacecore
            solution = spacecore()
        self.constellation = constellation
        self.solution = solution
        self.n_ues = n_ues
        self.n_cohorts = min(n_cohorts, n_ues)
        self.seed = seed
        self.session_interval_s = session_interval_s
        self.rrc_timeout_s = rrc_timeout_s
        self.dwell_s = mean_dwell_time_s(constellation)
        #: Optional observability sink mirroring :class:`CohortStats`
        #: as mergeable ``cohort.*`` series.
        self.metrics = metrics
        # Cohort sizes: n_ues split as evenly as integers allow.
        base, extra = divmod(n_ues, self.n_cohorts)
        sizes = np.full(self.n_cohorts, base, dtype=np.int64)
        sizes[:extra] += 1
        self._sizes = sizes

    # -- arrival sampling --------------------------------------------------------

    def _rates_per_user(self) -> Dict[ProcedureKind, float]:
        """The same per-UE event rates the storm arithmetic uses."""
        rates = dict(self.solution.procedure_rates_per_user(self.dwell_s))
        # The emulation's session clock is configurable; rescale the
        # session row so cohort and per-UE runs agree for any interval.
        rates[ProcedureKind.SESSION_ESTABLISHMENT] = \
            1.0 / self.session_interval_s
        return rates

    def sample_events(self, duration_s: float
                      ) -> Dict[ProcedureKind, np.ndarray]:
        """Per-cohort event counts for every procedure kind.

        One Poisson draw per (cohort, procedure): the superposition of
        each cohort member's arrival process.  Seeds derive from the
        engine seed and the procedure name, so adding a procedure kind
        never perturbs the draws of the others.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        counts: Dict[ProcedureKind, np.ndarray] = {}
        for kind, rate in sorted(self._rates_per_user().items(),
                                 key=lambda kv: kv[0].value):
            rng = np.random.default_rng(
                seed_for(self.seed, f"cohort:{kind.value}"))
            mean = self._sizes * (rate * duration_s)
            counts[kind] = rng.poisson(mean)
        return counts

    # -- batched cost application ------------------------------------------------

    def run(self, duration_s: float) -> CohortStats:
        """Sample the load point and apply message costs in batch."""
        events = self.sample_events(duration_s)
        stats = CohortStats(duration_s=duration_s, ue_count=self.n_ues,
                            n_cohorts=self.n_cohorts)
        totals: Dict[ProcedureKind, int] = {
            kind: int(per_cohort.sum())
            for kind, per_cohort in events.items()
        }
        for kind, total in totals.items():
            stats.events_by_procedure[kind.value] = total
            flow = self.solution.flow(kind)
            # Whole-cohort cost application: each of the ``total``
            # events contributes the flow's message counts -- three
            # multiplies per procedure kind, regardless of n_ues.
            stats.signaling_messages += total * len(flow)
            stats.satellite_messages += \
                total * self.solution.satellite_messages(flow)
            stats.crossing_messages += \
                total * self.solution.crossing_messages(flow)

        sessions = totals.get(ProcedureKind.SESSION_ESTABLISHMENT, 0)
        stats.sessions_attempted = sessions
        stats.sessions_established = sessions
        # Inactivity release follows every session that started early
        # enough to time out inside the horizon; thin binomially.
        live_fraction = max(0.0, 1.0 - self.rrc_timeout_s / duration_s)
        if sessions:
            rng = np.random.default_rng(seed_for(self.seed,
                                                 "cohort:releases"))
            stats.releases = int(rng.binomial(sessions, live_fraction))
        stats.handovers = totals.get(ProcedureKind.HANDOVER, 0)
        stats.mobility_registrations = \
            totals.get(ProcedureKind.MOBILITY_REGISTRATION, 0)
        stats.initial_registrations = \
            totals.get(ProcedureKind.INITIAL_REGISTRATION, 0)
        if self.metrics is not None:
            self._export_metrics(stats)
        return stats

    def _export_metrics(self, stats: CohortStats) -> None:
        """Mirror one run's counters into the registry, mergeable."""
        assert self.metrics is not None
        solution = self.solution.name
        self.metrics.counter("cohort.runs", solution=solution).inc()
        self.metrics.counter("cohort.ue_seconds", solution=solution).inc(
            stats.ue_count * stats.duration_s)
        for name, total in sorted(stats.events_by_procedure.items()):
            self.metrics.counter("cohort.events", solution=solution,
                                 procedure=name).inc(total)
        for kind, total in (
                ("signaling", stats.signaling_messages),
                ("satellite", stats.satellite_messages),
                ("crossing", stats.crossing_messages)):
            self.metrics.counter("cohort.messages", solution=solution,
                                 kind=kind).inc(total)
        self.metrics.counter("cohort.sessions_established",
                             solution=solution).inc(
                                 stats.sessions_established)
        self.metrics.counter("cohort.releases",
                             solution=solution).inc(stats.releases)

    # -- cross-validation --------------------------------------------------------

    def predicted_session_rate_per_ue(self) -> float:
        """Analytic counterpart of ``CohortStats.session_rate_per_ue``."""
        return 1.0 / self.session_interval_s

    def predicted_events_per_ue_s(self) -> float:
        """Analytic counterpart of ``CohortStats.events_per_ue_s``."""
        return sum(self._rates_per_user().values())
