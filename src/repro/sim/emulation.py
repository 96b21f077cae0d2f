"""Event-driven emulation of a satellite neighbourhood.

Drives the *real* SpaceCore stack (live crypto, live NF state) with
the paper's workload processes on the discrete-event engine: session
arrivals every ~106.9 s per UE, RRC inactivity releases, and
serving-satellite passes every dwell period.  This is the executable
counterpart of the analytic models in ``repro.experiments`` -- the
cross-validation tests check that what the emulation *measures*
matches what the arithmetic *predicts*.

A full constellation with 30 K users per satellite is deliberately out
of scope for an in-process emulation; a neighbourhood of O(100) UEs
with rate-scaling gives the same per-UE statistics.  For
population-scale load points (10K .. 1M+ UEs) use
:class:`CohortEmulation`, which swaps the per-UE event chains for the
vectorized cohort engine (:mod:`repro.runtime.cohort`) -- O(cohorts)
instead of O(users), same arrival processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..constants import (
    RRC_INACTIVITY_TIMEOUT_S,
    SESSION_INTERARRIVAL_S,
)
from ..core.satellite import FallbackRequired
from ..core.spacecore import SpaceCoreSystem
from ..fiveg.ue import UserEquipment
from ..orbits.constellation import Constellation
from ..orbits.coverage import mean_dwell_time_s
from .engine import Simulator


@dataclass
class EmulationStats:
    """Counters accumulated over one emulation run."""

    duration_s: float = 0.0
    ue_count: int = 0
    sessions_attempted: int = 0
    sessions_established: int = 0
    fallbacks: int = 0
    releases: int = 0
    handovers: int = 0
    uplink_packets: int = 0
    signaling_messages: int = 0
    usage_reports: int = 0
    state_updates_pushed: int = 0

    @property
    def session_rate_per_ue(self) -> float:
        """Measured establishments per UE-second."""
        if not self.duration_s or not self.ue_count:
            return 0.0
        return self.sessions_established / (self.duration_s
                                            * self.ue_count)


class NeighborhoodEmulation:
    """One geographic neighbourhood of UEs under live SpaceCore."""

    def __init__(self, constellation: Constellation, num_ues: int = 25,
                 center_lat_deg: float = 39.9,
                 center_lon_deg: float = 116.4,
                 seed: int = 0,
                 session_interval_s: float = SESSION_INTERARRIVAL_S):
        if num_ues < 1:
            raise ValueError("need at least one UE")
        self.system = SpaceCoreSystem(constellation)
        self.sim = Simulator()
        self.stats = EmulationStats(ue_count=num_ues)
        self.rng = random.Random(seed)
        self.session_interval_s = session_interval_s
        self.dwell_s = mean_dwell_time_s(constellation)
        self.ues: List[UserEquipment] = []
        for _ in range(num_ues):
            lat = center_lat_deg + self.rng.uniform(-1.5, 1.5)
            lon = center_lon_deg + self.rng.uniform(-1.5, 1.5)
            ue = self.system.provision_ue(lat, lon)
            self.system.register(ue, t=0.0)
            self.ues.append(ue)

    # -- event handlers -----------------------------------------------------------

    def _establish(self, ue: UserEquipment) -> None:
        self.stats.sessions_attempted += 1
        before = self.system.bus.count()
        try:
            self.system.establish_session(ue, t=self.sim.now)
        except FallbackRequired:
            self.stats.fallbacks += 1
        else:
            self.stats.sessions_established += 1
            if self.system.send_uplink(ue, 1200, self.sim.now):
                self.stats.uplink_packets += 1
            # Inactivity release after the paper's 10-15 s window.
            self.sim.schedule(RRC_INACTIVITY_TIMEOUT_S, self._release,
                              ue)
        self.stats.signaling_messages += self.system.bus.count() - before

    def _release(self, ue: UserEquipment) -> None:
        if ue.connected:
            self._report_usage(ue)
            self.system.release(ue)
            self.stats.releases += 1

    def _report_usage(self, ue: UserEquipment) -> None:
        """S4.4 loop: satellite reports usage, home refreshes states."""
        supi = str(ue.supi)
        sat_index = self.system._ue_serving_sat.get(supi)
        if sat_index is None:
            return
        satellite = self.system.satellite(sat_index)
        bytes_up, bytes_down = satellite.usage_report(supi)
        if bytes_up == 0 and bytes_down == 0:
            return
        served = satellite.served_session(supi)
        if served is None:
            return
        self.system.home.apply_usage_report(
            ue, served.state, bytes_up, bytes_down, self.sim.now)
        self.stats.usage_reports += 1
        self.stats.state_updates_pushed = \
            self.system.home.state_updates_pushed

    def _session_loop(self, ue: UserEquipment) -> None:
        self._establish(ue)
        delay = self.rng.expovariate(1.0 / self.session_interval_s)
        self.sim.schedule(max(1e-3, delay), self._session_loop, ue)

    def _pass_sweep(self) -> None:
        """Coverage moves: hand over connected UEs, leave idle alone.

        This is where SpaceCore's S4.3 behaviour shows: idle UEs cost
        nothing; active UEs run the short local handover.
        """
        before = self.system.bus.count()
        for ue in self.ues:
            if not ue.connected:
                continue
            try:
                moved = self.system.handover(ue, self.sim.now)
            except FallbackRequired:
                self.stats.fallbacks += 1
                continue
            if moved is not None:
                self.stats.handovers += 1
        self.stats.signaling_messages += self.system.bus.count() - before
        # Check well within a dwell so active sessions catch their
        # pass boundary promptly (a real UE reacts to measurements).
        self.sim.schedule(self.dwell_s / 8.0, self._pass_sweep)

    # -- driving --------------------------------------------------------------------

    def run(self, duration_s: float) -> EmulationStats:
        """Run the emulation for ``duration_s`` simulated seconds."""
        for ue in self.ues:
            first = self.rng.uniform(0.0, self.session_interval_s)
            self.sim.schedule(first, self._session_loop, ue)
        self.sim.schedule(self.dwell_s / 8.0, self._pass_sweep)
        self.sim.run(until=duration_s)
        self.stats.duration_s = duration_s
        return self.stats

    # -- cross-validation -----------------------------------------------------------

    def predicted_session_rate_per_ue(self) -> float:
        """The analytic counterpart of ``session_rate_per_ue``."""
        return 1.0 / self.session_interval_s


class CohortEmulation:
    """Population-scale emulation on the vectorized cohort engine.

    Same knobs as :class:`NeighborhoodEmulation` where they overlap
    (constellation, UE count, seed, session interval) but no per-UE
    simulator events: arrivals are sampled per cohort and message
    costs applied in batch, so ``num_ues`` can be millions.  The
    signaling model is the solution's message flows (SpaceCore by
    default) rather than the live NF stack -- cross-validation tests
    hold the two within sampling noise of each other on the rates
    both report.
    """

    def __init__(self, constellation: Constellation,
                 num_ues: int = 100_000, seed: int = 0,
                 session_interval_s: float = SESSION_INTERARRIVAL_S,
                 n_cohorts: int = 256, solution=None):
        from ..runtime.cohort import UECohortEngine
        self.engine = UECohortEngine(
            constellation, n_ues=num_ues, solution=solution, seed=seed,
            n_cohorts=n_cohorts, session_interval_s=session_interval_s)

    def run(self, duration_s: float):
        """Sample the load point; returns ``CohortStats``."""
        return self.engine.run(duration_s)

    def predicted_session_rate_per_ue(self) -> float:
        """The analytic counterpart of ``session_rate_per_ue``."""
        return self.engine.predicted_session_rate_per_ue()
