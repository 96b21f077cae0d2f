"""The SpaceCore satellite: a stateless core-function proxy (S5).

A satellite runs radio, a local UPF, and the SpaceCore proxy.  It
holds **no durable session state**: everything it needs to serve a UE
arrives piggybacked in the UE's encrypted state replica and is
installed only for the lifetime of the radio session.  What a hijacker
can steal from a satellite is therefore bounded by the currently
served sessions -- the resiliency property Fig. 19 measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..crypto import abe
from ..crypto.sts import Initiator, KeyAgreementError, Responder
from ..fiveg.bus import SignalingBus
from ..fiveg.core import SatelliteCredentials
from ..fiveg.messages import (
    ProcedureKind,
    SPACECORE_HANDOVER_FLOW,
    SPACECORE_SESSION_ESTABLISHMENT_FLOW,
)
from ..fiveg.nf.upf import Upf
from ..fiveg.state import SessionState
from ..fiveg.ue import StateReplica, UserEquipment


class FallbackRequired(Exception):
    """Local establishment failed; roll back to the legacy home-routed
    procedure (S4.2: "Otherwise, the serving satellite ... rolls back
    to the legacy procedure")."""


@dataclass
class ServedSession:
    """Ephemeral per-UE state while a radio session is active.

    This -- and only this -- is what hijacking the satellite exposes.
    """

    supi: str
    state: SessionState
    session_key: bytes
    installed_at: float


class SpaceCoreSatellite:
    """Radio + local UPF + the stateless SpaceCore proxy."""

    def __init__(self, sat_id: str, credentials: SatelliteCredentials,
                 bus: Optional[SignalingBus] = None):
        self.sat_id = sat_id
        self.credentials = credentials
        self.bus = bus if bus is not None else SignalingBus()
        # The local UPF enforces the QoS carried in each replica, so
        # home-pushed throttles (S4.4) bite at the edge.
        self.upf = Upf(f"{sat_id}-upf", enforce_qos=True)
        # The one per-UE table a satellite may hold: sessions live on
        # the radio right now, evaporating at release.  This is exactly
        # the hijack exposure Fig. 19 measures -- nothing durable.
        self._served: Dict[str, ServedSession] = {}  # repro: ignore[stateful-nf] -- ephemeral radio-session state (Fig. 19 contract)
        self.local_establishments = 0
        self.fallbacks = 0
        self.pagings = 0

    # -- Fig. 16a: localized session establishment --------------------------------

    def establish_session_locally(self, ue: UserEquipment,
                                  now: float = 0.0,
                                  home_verify_key=None) -> ServedSession:
        """Run the localized establishment with the UE's state replica.

        Steps (S4.2 + Algorithm 2): decrypt the piggybacked replica,
        verify the home's signature, check freshness, agree on a
        session key via station-to-station DH, and install the state
        into the local radio/UPF.  Raises :class:`FallbackRequired`
        whenever any check fails.
        """
        served = self._install_from_replica(ue, now, home_verify_key)
        for template in SPACECORE_SESSION_ESTABLISHMENT_FLOW:
            self.bus.send(template,
                          ProcedureKind.SESSION_ESTABLISHMENT.value)
        return served

    def _install_from_replica(self, ue: UserEquipment, now: float,
                              home_verify_key=None) -> ServedSession:
        replica = self._take_replica(ue)
        state = self._open_replica(replica, ue, now)
        session_key = self._agree_key(ue, home_verify_key)
        served = ServedSession(state.identifiers.supi, state, session_key,
                               now)
        self._served[state.identifiers.supi] = served
        self.upf.install_rule(state.identifiers.tunnel_id,
                              state.location.ip_address, state.qos)
        ue.connected = True
        self.local_establishments += 1
        return served

    def _take_replica(self, ue: UserEquipment) -> StateReplica:
        try:
            return ue.piggyback_replica()
        except RuntimeError as exc:
            self.fallbacks += 1
            raise FallbackRequired(str(exc)) from exc

    def _open_replica(self, replica: StateReplica, ue: UserEquipment,
                      now: float) -> SessionState:
        try:
            serialized = abe.decrypt(self.credentials.abe_key,
                                     replica.ciphertext)
        except abe.AbeDecryptionError as exc:
            self.fallbacks += 1
            raise FallbackRequired(
                f"{self.sat_id} not authorized for this UE's states"
            ) from exc
        if not ue.home_public.verify(serialized, replica.signature):
            self.fallbacks += 1
            raise FallbackRequired("state replica failed home signature "
                                   "check (UE-side manipulation?)")
        state = SessionState.from_bytes(serialized)
        if state.expired(now - replica.issued_at):
            self.fallbacks += 1
            raise FallbackRequired("state replica TTL expired; refresh "
                                   "from the home")
        return state

    def _agree_key(self, ue: UserEquipment, home_verify_key) -> bytes:
        """Algorithm 2 lines 9-14: mutual auth + fresh session key K."""
        verify_key = home_verify_key or ue.home_public
        initiator = Initiator(verify_key)
        responder = Responder(self.credentials.certificate,
                              self.credentials.signing_key)
        reply, sat_session = responder.respond(initiator.hello)
        try:
            ue_session = initiator.finish(reply)
        except KeyAgreementError as exc:
            self.fallbacks += 1
            raise FallbackRequired(f"key agreement failed: {exc}") from exc
        assert ue_session.key == sat_session.key
        return sat_session.key

    # -- Fig. 16c: handover with piggybacked replica --------------------------------

    def handover_in(self, ue: UserEquipment, from_sat:
                    "SpaceCoreSatellite", now: float = 0.0) -> ServedSession:
        """Accept an active UE from another satellite.

        The UE piggybacks its replica in the handover confirm; the old
        satellite releases its ephemeral state -- an equivalent but
        shorter state-migration path than the legacy Fig. 9c.
        """
        served = self._install_from_replica(ue, now)
        for template in SPACECORE_HANDOVER_FLOW:
            self.bus.send(template, ProcedureKind.HANDOVER.value)
        from_sat.release_session(served.supi)
        return served

    # -- session lifecycle -------------------------------------------------------------

    def release_session(self, supi: str) -> None:
        """Radio inactivity release: the ephemeral state evaporates."""
        served = self._served.pop(supi, None)
        if served is not None:
            self.upf.remove_rule(served.state.identifiers.tunnel_id)

    @property
    def served_count(self) -> int:
        return len(self._served)

    def served_session(self, supi: str) -> Optional[ServedSession]:
        """The ephemeral state for one served subscriber, if any."""
        return self._served.get(supi)

    # -- data plane ---------------------------------------------------------------------

    def forward_uplink(self, supi: str, size_bytes: int,
                       now_s: Optional[float] = None) -> bool:
        """Forward one uplink packet, shaped when a clock is given."""
        served = self._served.get(supi)
        if served is None:
            return False
        return self.upf.forward_uplink(
            served.state.identifiers.tunnel_id, size_bytes, now_s)

    def page(self, supi: str) -> bool:
        """Radio paging for downlink arrival (Algorithm 1 line 2)."""
        self.pagings += 1
        return True

    def usage_report(self, supi: str) -> int:
        """Bytes used, reported up to the home for billing (S4.4)."""
        served = self._served.get(supi)
        if served is None:
            return 0
        return self.upf.usage_report(served.state.identifiers.tunnel_id)

    # -- attack surface (Fig. 19) ----------------------------------------------------------

    def exposed_states(self) -> List[ServedSession]:
        """Everything a hijacker can extract from this satellite.

        Stateless design: only the currently-served sessions, whose
        keys rotate every establishment.  Contrast with SkyCore's
        pre-provisioned per-subscriber vectors.
        """
        return list(self._served.values())
