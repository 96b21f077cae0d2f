"""Executable signaling procedures: the legacy C1 of Fig. 9 and SpaceCore C1.

Each procedure both *performs* the state operations on live network
functions (so functional tests can verify carrier-grade behaviour) and
*emits* its message templates on a :class:`SignalingBus` (so the
signaling-cost experiments count exactly what the flow diagrams show).
"""

from __future__ import annotations

from typing import Tuple

from ..crypto import abe
from ..crypto.group import SCHNORR_GROUP
from .bus import SignalingBus
from .core import CoreNetwork
from .messages import (
    INITIAL_REGISTRATION_FLOW,
    SPACECORE_INITIAL_REGISTRATION_FLOW,
    ProcedureKind,
)
from .nf.smf import SessionContext
from .nf.amf import UeContext
from .state import (
    IdentifierState,
    LocationState,
    SecurityState,
    SessionState,
)
from .ue import StateReplica, UserEquipment

CellId = Tuple[int, int]


class ProcedureError(Exception):
    """A signaling procedure could not complete."""


class ProcedureRunner:
    """Runs the legacy 5G procedures against a home core network."""

    def __init__(self, core: CoreNetwork):
        self.core = core
        self.bus = SignalingBus()

    def _emit(self, flow, kind: ProcedureKind) -> None:
        for template in flow:
            self.bus.send(template, kind.value)

    # -- C1: initial registration (Fig. 9a) ---------------------------------------

    def initial_registration(self, ue: UserEquipment,
                             tracking_area: CellId) -> UeContext:
        """Authenticate the UE and create its registration context."""
        core = self.core
        suci = ue.conceal_identity()
        supi = core.udm.deconceal(suci)
        rand, autn = core.ausf.start_authentication(
            supi, core.serving_network_name)
        try:
            res_star = ue.authenticate(core.serving_network_name, rand,
                                       autn)
        except ValueError as exc:
            raise ProcedureError(f"UE rejected the network: {exc}") from exc
        k_seaf = core.ausf.confirm(supi, res_star)
        if k_seaf is None:
            raise ProcedureError("home rejected the UE's RES*")
        context = core.amf.register(supi, tracking_area, k_seaf)
        core.pcf.establish(core.udm.profile(supi))
        ue.guti = str(context.guti)
        self._emit(INITIAL_REGISTRATION_FLOW,
                   ProcedureKind.INITIAL_REGISTRATION)
        return context


class SpaceCoreRegistrar(ProcedureRunner):
    """C1 as SpaceCore extends it: same flow, plus state delegation.

    After the standard registration the home builds the full S1-S5
    bundle, signs it, encrypts it under the UE's access policy, and
    delegates it to the UE (S4.2 "initial registration", Fig. 16a).
    """

    def register_and_delegate(self, ue: UserEquipment, home_cell: CellId,
                              ue_cell: CellId,
                              now: float) -> SessionContext:
        """Full C1 plus state delegation: the SpaceCore onboarding path."""
        core = self.core
        # Standard authentication and registration, without re-emitting
        # the legacy template list (the SpaceCore flow replaces it).
        suci = ue.conceal_identity()
        supi = core.udm.deconceal(suci)
        rand, autn = core.ausf.start_authentication(
            supi, core.serving_network_name)
        res_star = ue.authenticate(core.serving_network_name, rand, autn)
        k_seaf = core.ausf.confirm(supi, res_star)
        if k_seaf is None:
            raise ProcedureError("home rejected the UE's RES*")
        context = core.amf.register(supi, ue_cell, k_seaf)
        ue.guti = str(context.guti)
        # The home creates the session state up front: geospatial IP,
        # QoS/billing policy, security material, DH parameters.
        qos, billing = core.pcf.establish(core.udm.profile(supi))
        session = core.smf.create_session(supi, home_cell, ue_cell, qos,
                                          billing, prefer_anchor=False)
        context.session_ids.append(session.session_id)
        ue.ip_address = session.address.to_ipv6()
        bundle = build_state_bundle(session, context, ue_cell)
        replica = delegate_states(core, bundle, now)
        ue.store_replica(replica)
        self._emit(SPACECORE_INITIAL_REGISTRATION_FLOW,
                   ProcedureKind.INITIAL_REGISTRATION)
        return session


def build_state_bundle(session: SessionContext, context: UeContext,
                       ue_cell: CellId) -> SessionState:
    """Assemble the S1-S5 bundle the home delegates to the UE."""
    security = SecurityState(
        k_amf=context.k_amf.hex(),
        k_seaf="",  # never delegated: stays in the home (S4.4)
        authentication_vector="",
        access_policy="serving-satellite-policy",
        dh_prime_hex=hex(SCHNORR_GROUP.p),
        dh_generator=SCHNORR_GROUP.g,
    )
    return SessionState(
        identifiers=IdentifierState(
            supi=str(session.supi),
            session_id=session.session_id,
            tunnel_id=session.tunnel_id,
            guti=str(context.guti),
        ),
        location=LocationState(
            cell_id=ue_cell,
            tracking_area_id=ue_cell,
            ip_address=session.address.to_ipv6(),
        ),
        qos=session.qos,
        billing=session.billing,
        security=security,
    )


def delegate_states(core: CoreNetwork, bundle: SessionState,
                    now: float) -> StateReplica:
    """Sign and ABE-encrypt a state bundle for UE storage (S4.4)."""
    serialized = bundle.to_bytes()
    signature = core.home_signing_key.sign(serialized)
    policy = core.state_policy(bundle.identifiers.supi)
    ciphertext = abe.encrypt(core.abe_master, serialized, policy)
    return StateReplica(ciphertext=ciphertext, signature=signature,
                        version=bundle.version, issued_at=now)
