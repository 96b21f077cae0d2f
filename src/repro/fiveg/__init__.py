"""5G core network substrate.

A from-scratch, in-process 5G core: identifiers, the S1-S5 session
state model, the C1-C4 signaling flows of Fig. 9, 5G-AKA, and the
network functions (AMF, SMF, UPF, AUSF, UDM, PCF) assembled into a
:class:`CoreNetwork` home.
"""

from .bus import SentMessage, SignalingBus
from .core import CoreNetwork, SatelliteCredentials
from .identifiers import Guti, GutiAllocator, Plmn, Suci, Supi
from .messages import (
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
from .procedures import (
    ProcedureError,
    ProcedureRunner,
    SpaceCoreRegistrar,
    build_state_bundle,
    delegate_states,
)
from .state import (
    BillingState,
    IdentifierState,
    LocationState,
    QosState,
    SecurityState,
    SessionState,
    StateCategory,
)
from .ue import StateReplica, UserEquipment

__all__ = [
    "SentMessage", "SignalingBus",
    "CoreNetwork", "SatelliteCredentials",
    "Guti", "GutiAllocator", "Plmn", "Suci", "Supi",
    "LEGACY_FLOWS", "SPACECORE_FLOWS", "MessageTemplate", "ProcedureKind",
    "Role",
    "INITIAL_REGISTRATION_FLOW", "SESSION_ESTABLISHMENT_FLOW",
    "HANDOVER_FLOW", "MOBILITY_REGISTRATION_FLOW",
    "ProcedureError", "ProcedureRunner", "SpaceCoreRegistrar",
    "build_state_bundle", "delegate_states",
    "BillingState", "IdentifierState", "LocationState", "QosState",
    "SecurityState", "SessionState", "StateCategory",
    "StateReplica", "UserEquipment",
]
