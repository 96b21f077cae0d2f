"""The Solution abstraction: placement + flows + state residency.

Every system the paper compares (5G NTN, SkyCore, Baoyun, DPCM,
SpaceCore) is described by:

* which NF roles run **on the satellite** (the Fig. 6 function split);
* which message flow each procedure uses (Fig. 9 legacy vs Fig. 16
  localized);
* which mobility procedures LEO satellite motion triggers;
* what state the satellite **stores durably** (the Fig. 19 attack
  surface) and how state synchronisation adds messages (SkyCore's
  broadcasts, DPCM's device replica updates);
* whether the UE's IP survives satellite mobility (Fig. 21).

The message-classification helpers below are what the signaling-storm
arithmetic consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Tuple

from ..constants import (
    RRC_INACTIVITY_TIMEOUT_S,
    SESSION_INTERARRIVAL_S,
)
from ..fiveg.messages import MessageTemplate, ProcedureKind, Role


class Side(Enum):
    """Where a message endpoint physically sits."""

    DEVICE = "device"
    SPACE = "space"
    GROUND = "ground"


class StateResidency(Enum):
    """How much sensitive state a satellite holds durably (Fig. 19)."""

    NONE = "none"                      # SpaceCore: ephemeral only
    ACTIVE_CONTEXTS = "active"         # Baoyun/DPCM: registered users
    ALL_SUBSCRIBERS = "all"            # SkyCore: pre-provisioned vectors
    RELAY_ONLY = "relay"               # 5G NTN: radio contexts only


#: Fraction of UEs holding an active radio connection at any moment:
#: a session every 106.9 s held ~12.5 s before inactivity release.
ACTIVE_FRACTION = RRC_INACTIVITY_TIMEOUT_S / SESSION_INTERARRIVAL_S


@dataclass(frozen=True)
class Solution:
    """A full system design point."""

    name: str
    on_board: FrozenSet[Role]
    flows: Dict[ProcedureKind, List[MessageTemplate]]
    mobility_registration_per_pass: bool
    state_residency: StateResidency = StateResidency.ACTIVE_CONTEXTS
    #: Extra ISL messages per state change for proactive sync
    #: (SkyCore's neighbourhood broadcast).
    sync_fanout: int = 0
    #: Extra radio messages per procedure to refresh a device replica
    #: (DPCM keeps the device copy coherent).
    replica_update_messages: int = 0
    #: Does the UE's IP survive satellite mobility? (Fig. 21)
    ip_stable_under_satellite_mobility: bool = False
    #: Per-procedure crypto overhead on the satellite (Fig. 18a), s.
    crypto_overhead_s: float = 0.0
    #: Legacy designs drag *every* camped UE through the handover
    #: machinery when its serving satellite changes (S3.2: "these
    #: static users have to initiate procedures in Figure 9c-d");
    #: SpaceCore only touches the actively connected minority.
    handover_all_users: bool = True
    #: Multiplier on per-message satellite CPU cost.  SkyCore's
    #: refactored single-box core processes messages far cheaper than
    #: a stock open5gs stack (its headline contribution).
    processing_efficiency: float = 1.0

    # -- message classification ---------------------------------------------------

    def side_of(self, role: Role) -> Side:
        """Physical location (device/space/ground) of an NF role."""
        if role is Role.UE:
            return Side.DEVICE
        return Side.SPACE if role in self.on_board else Side.GROUND

    def message_sides(self, message: MessageTemplate) -> Tuple[Side, Side]:
        """(source side, destination side) of one message."""
        return self.side_of(message.src), self.side_of(message.dst)

    def crosses_boundary(self, message: MessageTemplate) -> bool:
        """True when the message must traverse ISLs + a ground-space link.

        Device-to-space traffic rides the local radio leg; anything
        touching the ground side crosses.
        """
        sides = set(self.message_sides(message))
        return Side.GROUND in sides and sides != {Side.GROUND}

    def satellite_messages(self, flow: Iterable[MessageTemplate]) -> int:
        """Messages the serving satellite originates/terminates/relays.

        Every message with a device or space endpoint touches the
        serving satellite (device traffic terminates on, or is relayed
        by, the satellite radio).
        """
        count = 0
        for message in flow:
            sides = set(self.message_sides(message))
            if Side.SPACE in sides or Side.DEVICE in sides:
                count += 1
        return count

    def crossing_messages(self, flow: Iterable[MessageTemplate]) -> int:
        """How many messages of a flow cross the space-ground boundary."""
        return sum(1 for m in flow if self.crosses_boundary(m))

    def ground_messages(self, flow: Iterable[MessageTemplate]) -> int:
        """Messages the ground station must process."""
        count = 0
        for message in flow:
            sides = set(self.message_sides(message))
            if Side.GROUND in sides:
                count += 1
        return count

    # -- per-procedure shortcuts ----------------------------------------------------

    def flow(self, kind: ProcedureKind) -> List[MessageTemplate]:
        """The message flow this solution uses for a procedure."""
        return self.flows[kind]

    def procedure_rates_per_user(self, dwell_s: float
                                 ) -> Dict[ProcedureKind, float]:
        """Events/second a single served UE generates (S3.1-S3.2).

        * session establishments: every 106.9 s;
        * handovers: every pass -- all camped UEs for legacy designs,
          only the actively connected minority for SpaceCore;
        * mobility registrations: *every* UE, every pass, when the
          solution binds tracking areas to satellites;
        * initial registrations: once a day (power cycle scale).
        """
        handover_fraction = (1.0 if self.handover_all_users
                             else ACTIVE_FRACTION)
        rates = {
            ProcedureKind.SESSION_ESTABLISHMENT:
                1.0 / SESSION_INTERARRIVAL_S,
            ProcedureKind.HANDOVER: handover_fraction / dwell_s,
            ProcedureKind.MOBILITY_REGISTRATION:
                (1.0 / dwell_s if self.mobility_registration_per_pass
                 else 0.0),
            ProcedureKind.INITIAL_REGISTRATION: 1.0 / 86400.0,
        }
        return rates
