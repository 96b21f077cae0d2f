"""Signaling message catalog: the C1-C4 flows of Fig. 9 and Fig. 16.

Every procedure is transcribed as an ordered list of message templates
with source/destination network-function roles and the state operations
(create/copy/update S1-S5) the paper annotates on each arrow.  These
templates are the single source of truth for:

* the signaling-storm arithmetic of Fig. 10/20 (how many messages a
  procedure costs, and which ones cross the space-ground boundary);
* the CPU model of Fig. 7 (which NF processes each message);
* the leakage accounting of Fig. 19 (which messages carry S5).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple

from .state import StateCategory


class Role(Enum):
    """Network-function roles (Appendix A acronyms)."""

    UE = "UE"
    RAN = "RAN"          # base station / satellite radio
    RAN2 = "RAN2"        # target base station in handovers
    AMF = "AMF"
    SMF = "SMF"
    UPF = "UPF"
    ANCHOR_UPF = "PSA-UPF"
    AUSF = "AUSF"
    UDM = "UDM"
    PCF = "PCF"


class ProcedureKind(Enum):
    """The four control-plane procedures the paper analyses (Fig. 9)."""

    INITIAL_REGISTRATION = "C1"
    SESSION_ESTABLISHMENT = "C2"
    HANDOVER = "C3"
    MOBILITY_REGISTRATION = "C4"


@dataclass(frozen=True)
class MessageTemplate:
    """One signaling arrow in a procedure diagram."""

    step: str                     # the paper's P-label
    name: str
    src: Role
    dst: Role
    size_bytes: int = 200
    carries: Tuple[StateCategory, ...] = ()
    creates: Tuple[StateCategory, ...] = ()

    @property
    def carries_security(self) -> bool:
        """Messages carrying S5 are the leakage vector of Fig. 19."""
        return StateCategory.SECURITY in self.carries


def _msg(step, name, src, dst, size=200, carries=(), creates=()):
    return MessageTemplate(step, name, src, dst, size,
                           tuple(carries), tuple(creates))


S1 = StateCategory.IDENTIFIERS
S2 = StateCategory.LOCATION
S3 = StateCategory.QOS
S4 = StateCategory.BILLING
S5 = StateCategory.SECURITY


# ---------------------------------------------------------------------------
# Legacy 5G flows (Fig. 9)
# ---------------------------------------------------------------------------

#: C1 -- initial registration (Fig. 9a).
INITIAL_REGISTRATION_FLOW: List[MessageTemplate] = [
    _msg("P0", "rrc-connection-request", Role.UE, Role.RAN, 88),
    _msg("P0", "rrc-connection-setup", Role.RAN, Role.UE, 120),
    _msg("P1", "rrc-setup-complete", Role.UE, Role.RAN, 96),
    _msg("P2", "registration-request", Role.RAN, Role.AMF, 256,
         carries=(S1, S2)),
    _msg("P3", "authenticate-request", Role.AMF, Role.AUSF, 180,
         carries=(S1,)),
    _msg("P3", "auth-vector-request", Role.AUSF, Role.UDM, 180,
         carries=(S1,)),
    _msg("P3", "auth-vector-response", Role.UDM, Role.AUSF, 320,
         carries=(S5,), creates=(S5,)),
    _msg("P3", "authenticate-response", Role.AUSF, Role.AMF, 280,
         carries=(S5,)),
    _msg("P3", "nas-authentication-request", Role.AMF, Role.UE, 160,
         carries=(S5,)),
    _msg("P3", "nas-authentication-response", Role.UE, Role.AMF, 120,
         creates=(S5,)),
    _msg("P4", "policy-establishment", Role.AMF, Role.PCF, 220,
         carries=(S1,)),
    _msg("P4", "policy-response", Role.PCF, Role.AMF, 260,
         creates=(S3, S4)),
    _msg("P5", "registration-accept", Role.AMF, Role.UE, 240,
         carries=(S1,)),
    _msg("P5", "registration-complete", Role.UE, Role.AMF, 96),
]

#: C2 -- session establishment (Fig. 9b).  Includes the NAS service
#: request and security-mode exchange that Trace 1 shows riding along
#: with every session activation on operational terminals.
SESSION_ESTABLISHMENT_FLOW: List[MessageTemplate] = [
    _msg("P0", "rrc-connection-request", Role.UE, Role.RAN, 88),
    _msg("P0", "rrc-connection-setup", Role.RAN, Role.UE, 120),
    _msg("P1", "rrc-setup-complete", Role.UE, Role.RAN, 96),
    _msg("P1", "service-request", Role.UE, Role.AMF, 140,
         carries=(S1,)),
    _msg("P1", "security-mode-command", Role.AMF, Role.UE, 160,
         carries=(S5,)),
    _msg("P1", "security-mode-complete", Role.UE, Role.AMF, 120),
    _msg("P6", "session-request", Role.RAN, Role.AMF, 200,
         carries=(S1,)),
    _msg("P7", "session-context-create", Role.AMF, Role.SMF, 260,
         carries=(S1,)),
    _msg("P7", "session-context-create-response", Role.SMF, Role.AMF, 180),
    _msg("P7", "udm-register-subscribe", Role.SMF, Role.UDM, 180,
         carries=(S1,)),
    _msg("P7", "udm-subscription-data", Role.UDM, Role.SMF, 240),
    _msg("P4", "policy-establishment", Role.SMF, Role.PCF, 220,
         carries=(S1,)),
    _msg("P4", "policy-response", Role.PCF, Role.SMF, 260,
         creates=(S3, S4)),
    _msg("P8", "forwarding-rule-establishment", Role.SMF, Role.UPF, 300,
         carries=(S2, S3, S4), creates=(S2,)),
    _msg("P8", "forwarding-rule-response", Role.UPF, Role.SMF, 140),
    _msg("P9", "session-accept", Role.AMF, Role.UE, 280,
         carries=(S1, S2, S3)),
    _msg("P10", "session-context-update-request", Role.SMF,
         Role.ANCHOR_UPF, 220, carries=(S1,)),
    _msg("P11", "session-context-update-response", Role.ANCHOR_UPF,
         Role.SMF, 140),
]

#: C3 -- handover between base stations / satellites (Fig. 9c).
HANDOVER_FLOW: List[MessageTemplate] = [
    _msg("P12", "measurement-report", Role.UE, Role.RAN, 120),
    _msg("P12", "handover-request", Role.RAN, Role.RAN2, 420,
         carries=(S2, S4, S5)),
    _msg("P12", "handover-command", Role.RAN, Role.UE, 160),
    _msg("P12", "handover-confirm", Role.UE, Role.RAN2, 120),
    _msg("P13", "path-switch-request", Role.RAN2, Role.AMF, 260,
         carries=(S2, S5)),
    _msg("P10", "session-context-update", Role.AMF, Role.SMF, 220,
         carries=(S2, S3)),
    _msg("P10", "forwarding-rule-modification", Role.SMF, Role.UPF, 240,
         carries=(S2, S3)),
    _msg("P14", "path-switch-response", Role.AMF, Role.RAN2, 180),
    _msg("P15", "session-release", Role.AMF, Role.RAN, 140),
]

#: C4 -- mobility registration update (Fig. 9d).  The paper's Option 3/4
#: satellites trigger this for *static* users at every pass.
MOBILITY_REGISTRATION_FLOW: List[MessageTemplate] = [
    _msg("P0", "rrc-connection-request", Role.UE, Role.RAN, 88),
    _msg("P0", "rrc-connection-setup", Role.RAN, Role.UE, 120),
    _msg("P1", "rrc-setup-complete", Role.UE, Role.RAN, 96),
    _msg("P12", "registration-request", Role.RAN, Role.AMF, 256,
         carries=(S1, S2)),
    _msg("P16", "ue-context-transfer-request", Role.AMF, Role.SMF, 200,
         carries=(S1,)),
    _msg("P16", "ue-context-transfer", Role.SMF, Role.AMF, 460,
         carries=(S1, S2, S3, S5)),
    _msg("P1-7", "udm-register-subscribe", Role.AMF, Role.UDM, 180,
         carries=(S1,)),
    _msg("P1-7", "udm-subscription-data", Role.UDM, Role.AMF, 240),
    _msg("P10", "session-context-update", Role.AMF, Role.SMF, 220,
         carries=(S1,)),
    _msg("P10", "session-context-update-ack", Role.SMF, Role.AMF, 140),
    _msg("P5", "registration-accept", Role.AMF, Role.UE, 240,
         carries=(S1,)),
    _msg("P5", "registration-complete", Role.UE, Role.AMF, 96),
    _msg("P15", "old-context-release", Role.AMF, Role.SMF, 140),
]

#: Downlink-data trigger (S3.1's prose: "To deliver downlink traffic,
#: the anchor gateway should notify AMF of the data arrival.  Then AMF
#: notifies the base station to run paging for the UE.  If successful,
#: the device repeats the above procedure").  Counted on top of the C2
#: flow for network-originated sessions.
DOWNLINK_TRIGGER_FLOW: List[MessageTemplate] = [
    _msg("DL", "downlink-data-notification", Role.ANCHOR_UPF, Role.SMF,
         140),
    _msg("DL", "data-notification-forward", Role.SMF, Role.AMF, 140,
         carries=(S1,)),
    _msg("DL", "paging-request", Role.AMF, Role.RAN, 120,
         carries=(S1,)),
    _msg("DL", "paging-broadcast", Role.RAN, Role.UE, 64),
]

#: SpaceCore's downlink trigger: Algorithm 1 delivers the packet to
#: the covering satellite, which pages the destination cell directly
#: -- no anchor, no AMF round trip (Fig. 16b).
SPACECORE_DOWNLINK_TRIGGER_FLOW: List[MessageTemplate] = [
    _msg("DL", "geospatial-paging", Role.RAN, Role.UE, 64),
]

LEGACY_FLOWS: Dict[ProcedureKind, List[MessageTemplate]] = {
    ProcedureKind.INITIAL_REGISTRATION: INITIAL_REGISTRATION_FLOW,
    ProcedureKind.SESSION_ESTABLISHMENT: SESSION_ESTABLISHMENT_FLOW,
    ProcedureKind.HANDOVER: HANDOVER_FLOW,
    ProcedureKind.MOBILITY_REGISTRATION: MOBILITY_REGISTRATION_FLOW,
}


# ---------------------------------------------------------------------------
# SpaceCore flows (Fig. 16)
# ---------------------------------------------------------------------------

#: C1 -- unchanged from legacy, but the accept carries the encrypted
#: state replica delegated to the UE (S4.2 "initial registration").
SPACECORE_INITIAL_REGISTRATION_FLOW: List[MessageTemplate] = (
    INITIAL_REGISTRATION_FLOW[:-2] + [
        _msg("P7'", "registration-accept-with-replica", Role.AMF, Role.UE,
             1100, carries=(S1, S2, S3, S4, S5)),
        _msg("P5", "registration-complete", Role.UE, Role.AMF, 96),
    ])

#: C2 -- localized session establishment (Fig. 16a): the replica is
#: piggybacked on the RRC setup complete, the satellite installs it
#: locally, and the session accept closes the exchange.  Four radio
#: messages, no home round trip.
SPACECORE_SESSION_ESTABLISHMENT_FLOW: List[MessageTemplate] = [
    _msg("P0", "rrc-connection-request", Role.UE, Role.RAN, 88),
    _msg("P0", "rrc-connection-setup", Role.RAN, Role.UE, 120),
    _msg("P1'", "rrc-setup-complete-with-replica", Role.UE, Role.RAN, 1100,
         carries=(S1, S2, S3, S4, S5)),
    _msg("P9", "session-accept", Role.RAN, Role.UE, 280,
         carries=(S1, S2, S3)),
]

#: C3 -- handover with the replica piggybacked in the confirm
#: (Fig. 16c): the path through AMF/SMF/home is bypassed entirely.
SPACECORE_HANDOVER_FLOW: List[MessageTemplate] = [
    _msg("P12", "measurement-report", Role.UE, Role.RAN, 120),
    _msg("P12", "handover-command", Role.RAN, Role.UE, 160),
    _msg("P12", "handover-confirm-with-replica", Role.UE, Role.RAN2, 1100,
         carries=(S1, S2, S3, S4, S5)),
    _msg("P15", "session-release", Role.RAN2, Role.RAN, 140),
]

#: C4 -- eliminated for satellite mobility (S4.3): geospatial tracking
#: areas never move, so a static UE performs no mobility registration.
SPACECORE_MOBILITY_REGISTRATION_FLOW: List[MessageTemplate] = []

SPACECORE_FLOWS: Dict[ProcedureKind, List[MessageTemplate]] = {
    ProcedureKind.INITIAL_REGISTRATION: SPACECORE_INITIAL_REGISTRATION_FLOW,
    ProcedureKind.SESSION_ESTABLISHMENT:
        SPACECORE_SESSION_ESTABLISHMENT_FLOW,
    ProcedureKind.HANDOVER: SPACECORE_HANDOVER_FLOW,
    ProcedureKind.MOBILITY_REGISTRATION:
        SPACECORE_MOBILITY_REGISTRATION_FLOW,
}
