"""Attack models and leakage accounting (S3.3, Fig. 19, Appendix B).

Two attacks from the paper's threat model:

* **satellite hijacking** -- the adversary takes full control of one
  satellite and extracts everything stored on it, then keeps observing
  whatever new state the satellite is handed as it sweeps the globe
  (until the home revokes it);
* **man-in-the-middle** -- passive listening on wireless ISLs; without
  IPsec (not mandatory in the standards [51]) every security state
  migrated in the clear leaks.

Leakage is counted in *sensitive states* (S5 items: keys and
authentication vectors), the unit of Fig. 19's axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from ..baselines.base import ACTIVE_FRACTION, Solution, StateResidency
from ..constants import EARTH_RADIUS_KM
from ..fiveg.messages import ProcedureKind


@dataclass(frozen=True)
class HijackScenario:
    """Parameters of a hijacking experiment (Fig. 19a)."""

    capacity: int                  # users served per satellite
    total_subscribers: int         # constellation-wide subscriber base
    dwell_s: float                 # coverage transient per pass
    revocation_delay_s: float = 600.0  # home detects + revokes (S4.4)


def hijack_initial_leak(solution: Solution,
                        scenario: HijackScenario) -> int:
    """States extracted the instant the satellite is compromised."""
    residency = solution.state_residency
    if residency is StateResidency.ALL_SUBSCRIBERS:
        # SkyCore/Option 4: pre-provisioned vectors for everyone.
        return scenario.total_subscribers
    if residency is StateResidency.ACTIVE_CONTEXTS:
        # Baoyun/DPCM: the registered contexts of the footprint.
        return scenario.capacity
    if residency is StateResidency.RELAY_ONLY:
        # 5G NTN: only the radio-layer contexts of connected users.
        return int(scenario.capacity * ACTIVE_FRACTION)
    # SpaceCore: only the currently served sessions' ephemeral keys.
    return int(scenario.capacity * ACTIVE_FRACTION)


def hijack_leak_rate(solution: Solution,
                     scenario: HijackScenario) -> float:
    """New states/s the hijacked satellite keeps observing.

    Stateful designs hand the satellite fresh contexts as new users
    enter its footprint (capacity/dwell users per second).  SpaceCore
    hands it ABE blobs it can open only until revocation.
    """
    newcomer_rate = scenario.capacity / scenario.dwell_s
    residency = solution.state_residency
    if residency is StateResidency.ALL_SUBSCRIBERS:
        # Already has everyone; new observations add nothing.
        return 0.0
    if residency is StateResidency.ACTIVE_CONTEXTS:
        return newcomer_rate
    if residency is StateResidency.RELAY_ONLY:
        return newcomer_rate * ACTIVE_FRACTION
    # SpaceCore: new piggybacked replicas are decryptable until the
    # home rotates the epoch; only active users hand over replicas.
    return newcomer_rate * ACTIVE_FRACTION


def hijack_leak_series(solution: Solution, scenario: HijackScenario,
                       duration_s: float,
                       step_s: float = 60.0) -> List[Tuple[float, float]]:
    """Cumulative leaked states over time (the Fig. 19a curves)."""
    initial = float(hijack_initial_leak(solution, scenario))
    rate = hijack_leak_rate(solution, scenario)
    revocable = solution.state_residency is StateResidency.NONE
    series: List[Tuple[float, float]] = []
    t = 0.0
    while t <= duration_s:
        if revocable:
            exposure = min(t, scenario.revocation_delay_s)
        else:
            exposure = t
        series.append((t, initial + rate * exposure))
        t += step_s
    return series


# ---------------------------------------------------------------------------
# Man-in-the-middle on wireless links (Fig. 19b)
# ---------------------------------------------------------------------------

def _is_encrypted_at_rest(message_name: str) -> bool:
    """SpaceCore's replicas travel ABE-encrypted; everything the
    legacy flows annotate as carrying S5 travels in the clear when
    IPsec is off."""
    return "replica" in message_name


def mitm_leak_rate(solution: Solution, capacity: int, dwell_s: float,
                   ipsec_enabled: bool = False) -> float:
    """Security states/s leaked to a passive wireless listener.

    Counts S5-carrying messages per second on any wireless segment
    (radio, ISL, or ground-space link), excluding end-to-end-encrypted
    payloads (ABE replicas), plus SkyCore-style sync broadcasts which
    replicate security contexts between satellites.
    """
    if ipsec_enabled:
        # IPsec protects the infrastructure links; only the initial
        # over-the-air AKA exchange remains, which carries no usable
        # key material in the clear.
        return 0.0
    rates = solution.procedure_rates_per_user(dwell_s)
    per_user = 0.0
    for kind, rate in rates.items():
        flow = solution.flow(kind)
        exposed = sum(1 for m in flow
                      if m.carries_security
                      and not _is_encrypted_at_rest(m.name))
        per_user += rate * exposed
    # Proactive sync replicates the security context to sync_fanout
    # neighbours on every state change (session + mobility events).
    if solution.sync_fanout:
        change_rate = (rates[ProcedureKind.SESSION_ESTABLISHMENT]
                       + rates[ProcedureKind.MOBILITY_REGISTRATION])
        per_user += change_rate * solution.sync_fanout
    return per_user * capacity


def mitm_comparison(solutions, capacity: int,
                    dwell_s: float) -> Dict[str, float]:
    """The Fig. 19b bar chart: per-solution MITM leak rates."""
    return {s.name: mitm_leak_rate(s, capacity, dwell_s)
            for s in solutions}


# ---------------------------------------------------------------------------
# Jamming (S3.3: "Jamming satellite links can also block the stateful
# procedures in Figure 9 and disrupt services.")
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JammingAttack:
    """A regional jammer disabling links near a terrestrial location.

    ``radius_km`` is the footprint of the jammer's effect: any ISL
    endpoint or ground-space link whose satellite currently flies over
    the region is disrupted.
    """

    lat: float
    lon: float
    radius_km: float = 1500.0
    #: Links this jammer has taken down and not yet restored.  Mutable
    #: bookkeeping (the frozen dataclass only freezes rebinding), so
    #: ``apply``/``lift`` are idempotent and ``lift`` restores exactly
    #: the marks this attack placed -- never failures injected by
    #: other fault sources.
    _downed: Set[FrozenSet[int]] = field(default_factory=set, init=False,
                                         repr=False, compare=False,
                                         hash=False)

    def affected_satellites(self, topology, t: float) -> List[int]:
        """Satellites whose links the jammer can currently disturb."""
        import numpy as np

        from ..orbits.snapshot import snapshot_for
        threshold = self.radius_km / EARTH_RADIUS_KM
        ang = snapshot_for(topology.propagator, t).central_angles(
            self.lat, self.lon)
        return [int(sat) for sat in np.nonzero(ang <= threshold)[0]]

    def apply(self, topology, t: float) -> int:
        """Take down every ISL touching an affected satellite.

        Returns the number of satellites disrupted.  The satellites
        themselves stay alive (jamming is a link-layer attack), so
        recovery is instant once the jammer stops.  Idempotent:
        re-applying only downs links not already down, and links that
        were failed by another source are left to that source.
        """
        affected = self.affected_satellites(topology, t)
        for sat in affected:
            for neighbor in topology.grid_neighbors(sat):
                link = frozenset((sat, neighbor))
                if (link in self._downed
                        or topology.isl_marked_failed(sat, neighbor)):
                    continue
                topology.fail_isl(sat, neighbor)
                self._downed.add(link)
        return len(affected)

    def lift(self, topology, t: float) -> None:
        """Stop jamming: restore exactly the links this attack downed.

        Idempotent, and safe to call at a different time than
        ``apply`` -- the restoration set is the recorded one, not a
        re-computation from the (moved) geometry.
        """
        for link in self._downed:
            a, b = tuple(link)
            topology.recover_isl(a, b)
        self._downed.clear()
