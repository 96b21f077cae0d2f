"""The five systems of the evaluation (S6.1) as Solution design points.

* **5G NTN** [15, 16]: regeneration mode -- the satellite is radio
  access only (Fig. 6a); every core interaction rides ISLs to the
  remote ground core.
* **SkyCore** [42]: the UAV core moved to satellites -- all functions
  and *all subscribers' pre-computed security contexts* on board, with
  proactive state synchronisation broadcast between satellites.
* **Baoyun** [22-24]: the first real 5G LEO core -- AMF + SMF + UPF on
  the satellite (Fig. 6c), authentication/subscription/policy still at
  the terrestrial home.
* **DPCM** [44]: device-side state replicas accelerate the legacy
  procedures, but service areas stay logical, so satellite mobility
  still triggers the full registration machinery plus replica
  refreshes.
* **SpaceCore**: this paper (Fig. 16 flows, geospatial mobility,
  stateless satellites).
"""

from __future__ import annotations

from typing import Dict, List

from ..fiveg.messages import (
    HANDOVER_FLOW,
    INITIAL_REGISTRATION_FLOW,
    LEGACY_FLOWS,
    MOBILITY_REGISTRATION_FLOW,
    MessageTemplate,
    ProcedureKind,
    Role,
    SESSION_ESTABLISHMENT_FLOW,
    SPACECORE_FLOWS,
)
from .base import Solution, StateResidency

_RADIO_ONLY = frozenset({Role.RAN, Role.RAN2})
_DATA_SESSION = _RADIO_ONLY | frozenset({Role.UPF})
_WITH_MOBILITY = _DATA_SESSION | frozenset({Role.AMF, Role.SMF})
_ALL_FUNCTIONS = _WITH_MOBILITY | frozenset(
    {Role.AUSF, Role.UDM, Role.PCF, Role.ANCHOR_UPF})

#: Measured cost of SpaceCore's per-procedure local crypto (state
#: decryption + key agreement, Fig. 18a), seconds.
SPACECORE_CRYPTO_OVERHEAD_S = 0.004


def fiveg_ntn() -> Solution:
    """Option 1: satellites as radio access only."""
    return Solution(
        name="5G NTN",
        on_board=_RADIO_ONLY,
        flows=dict(LEGACY_FLOWS),
        mobility_registration_per_pass=False,
        state_residency=StateResidency.RELAY_ONLY,
        # The IP anchors at the remote home gateway, so it survives
        # satellite mobility -- at the price of slow, remote signaling.
        ip_stable_under_satellite_mobility=True,
    )


def skycore() -> Solution:
    """All functions + pre-provisioned state on board, with sync.

    SkyCore avoids ground round trips entirely but pays (a) heavy
    on-board functions and (b) a proactive state-synchronisation
    broadcast so neighbouring satellites stay consistent.
    """
    return Solution(
        name="SkyCore",
        on_board=_ALL_FUNCTIONS,
        flows=dict(LEGACY_FLOWS),
        mobility_registration_per_pass=True,
        state_residency=StateResidency.ALL_SUBSCRIBERS,
        sync_fanout=12,
        processing_efficiency=0.15,
    )


def _baoyun_flows() -> Dict[ProcedureKind, List[MessageTemplate]]:
    """Baoyun's on-board SMF caches subscription data after the first
    contact, so per-session UDM round trips disappear; policy (PCF)
    stays at the home and is consulted per session."""
    session = [m for m in SESSION_ESTABLISHMENT_FLOW
               if Role.UDM not in (m.src, m.dst)]
    return {
        ProcedureKind.INITIAL_REGISTRATION: INITIAL_REGISTRATION_FLOW,
        ProcedureKind.SESSION_ESTABLISHMENT: session,
        ProcedureKind.HANDOVER: HANDOVER_FLOW,
        ProcedureKind.MOBILITY_REGISTRATION: MOBILITY_REGISTRATION_FLOW,
    }


def baoyun() -> Solution:
    """Option 3: AMF/SMF/UPF on board, home keeps AUSF/UDM/PCF."""
    return Solution(
        name="Baoyun",
        on_board=_WITH_MOBILITY,
        flows=_baoyun_flows(),
        mobility_registration_per_pass=True,
        state_residency=StateResidency.ACTIVE_CONTEXTS,
    )


def _dpcm_flows() -> Dict[ProcedureKind, List[MessageTemplate]]:
    """DPCM localizes session establishment with the device replica
    (its headline latency win) but keeps registration/mobility flows
    legacy; the device replica is kept coherent with the home by the
    extra refresh messages accounted via ``replica_update_messages``."""
    from ..fiveg.messages import MessageTemplate as _MT
    from ..fiveg.state import StateCategory as _SC
    all_states = tuple(_SC)
    shortened_session = [
        SESSION_ESTABLISHMENT_FLOW[0],
        SESSION_ESTABLISHMENT_FLOW[1],
        _MT("P1'", "rrc-setup-complete-with-device-state", Role.UE,
            Role.RAN, 900, all_states),
        _MT("P7", "session-context-create", Role.RAN, Role.AMF, 260,
            (_SC.IDENTIFIERS,)),
        _MT("P7", "session-context-install", Role.AMF, Role.SMF, 260,
            (_SC.IDENTIFIERS, _SC.QOS)),
        _MT("P8", "forwarding-rule-establishment", Role.SMF, Role.UPF,
            300, (_SC.LOCATION, _SC.QOS, _SC.BILLING)),
        _MT("P9", "session-accept", Role.AMF, Role.UE, 280,
            (_SC.IDENTIFIERS, _SC.LOCATION, _SC.QOS)),
    ]
    return {
        ProcedureKind.INITIAL_REGISTRATION: INITIAL_REGISTRATION_FLOW,
        ProcedureKind.SESSION_ESTABLISHMENT: shortened_session,
        ProcedureKind.HANDOVER: HANDOVER_FLOW,
        ProcedureKind.MOBILITY_REGISTRATION: MOBILITY_REGISTRATION_FLOW,
    }


def dpcm() -> Solution:
    """Device-assisted control plane on the Option 3 placement."""
    return Solution(
        name="DPCM",
        on_board=_WITH_MOBILITY,
        flows=_dpcm_flows(),
        mobility_registration_per_pass=True,
        state_residency=StateResidency.ACTIVE_CONTEXTS,
        replica_update_messages=2,
    )


def spacecore() -> Solution:
    """This paper: stateless satellites + geospatial everything."""
    return Solution(
        name="SpaceCore",
        on_board=_DATA_SESSION,
        flows=dict(SPACECORE_FLOWS),
        mobility_registration_per_pass=False,
        state_residency=StateResidency.NONE,
        ip_stable_under_satellite_mobility=True,
        crypto_overhead_s=SPACECORE_CRYPTO_OVERHEAD_S,
        # Idle UEs reselect silently (S4.3); only active sessions
        # perform the local piggybacked handover.
        handover_all_users=False,
    )


#: Evaluation order used by Fig. 17/19/20 and Table 4.
ALL_SOLUTIONS = (spacecore, fiveg_ntn, skycore, dpcm, baoyun)


def solution_by_name(name: str) -> Solution:
    """Look up one of the five solutions case-insensitively."""
    for factory in ALL_SOLUTIONS:
        candidate = factory()
        if candidate.name.lower() == name.lower():
            return candidate
    raise KeyError(f"unknown solution {name!r}")
