"""SMF: session management function.

Creates PDU sessions: selects a UPF, allocates the UE's (geospatial)
IP address, installs forwarding rules, and keeps the session context
that handovers and mobility registrations update.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ...geo.addressing import AddressAllocator, GeospatialAddress
from ..identifiers import Supi
from ..state import BillingState, QosState
from .upf import Upf


@dataclass
class SessionContext:
    """The SMF's per-PDU-session state."""

    session_id: int
    supi: Supi
    tunnel_id: int
    address: GeospatialAddress
    upf_name: str
    qos: QosState
    billing: BillingState
    active: bool = True


class Smf:
    """PDU session orchestration."""

    def __init__(self, name: str, address_allocator: AddressAllocator):
        self.name = name
        self._allocator = address_allocator
        self._upfs: Dict[str, Upf] = {}
        self._sessions: Dict[int, SessionContext] = {}
        self._session_ids = itertools.count(1)
        self._tunnel_ids = itertools.count(1000)
        self.sessions_created = 0

    # -- UPF pool -----------------------------------------------------------

    def attach_upf(self, upf: Upf) -> None:
        """Add a user-plane gateway to this SMF's pool."""
        self._upfs[upf.name] = upf

    def select_upf(self, prefer_anchor: bool = True) -> Upf:
        """Pick a gateway: the anchor when one exists (legacy mode)."""
        if not self._upfs:
            raise RuntimeError("no UPF attached to this SMF")
        if prefer_anchor:
            for upf in self._upfs.values():
                if upf.is_anchor:
                    return upf
        return min(self._upfs.values(), key=lambda u: u.session_count)

    # -- session lifecycle (C2) ------------------------------------------------

    def create_session(self, supi: Supi, home_cell: Tuple[int, int],
                       ue_cell: Tuple[int, int], qos: QosState,
                       billing: BillingState,
                       prefer_anchor: bool = True) -> SessionContext:
        """P7/P8: create the session and install forwarding rules."""
        upf = self.select_upf(prefer_anchor)
        address = self._allocator.allocate(home_cell, ue_cell)
        context = SessionContext(
            session_id=next(self._session_ids),
            supi=supi,
            tunnel_id=next(self._tunnel_ids),
            address=address,
            upf_name=upf.name,
            qos=qos,
            billing=billing,
        )
        upf.install_rule(context.tunnel_id, address.to_ipv6(), qos)
        self._sessions[context.session_id] = context
        self.sessions_created += 1
        return context

    def release_session(self, session_id: int) -> None:
        """Release a PDU session and its forwarding rule (idempotent)."""
        context = self._sessions.pop(session_id, None)
        if context is None:
            return
        upf = self._upfs.get(context.upf_name)
        if upf is not None:
            upf.remove_rule(context.tunnel_id)

    def session(self, session_id: int) -> Optional[SessionContext]:
        """The session context by id, if it exists."""
        return self._sessions.get(session_id)

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    # -- mobility support (C3/C4) ---------------------------------------------------

    def switch_path(self, session_id: int, new_upf_name: str
                    ) -> SessionContext:
        """P10: move a session's user plane to another UPF."""
        context = self._sessions.get(session_id)
        if context is None:
            raise KeyError(f"unknown session {session_id}")
        old_upf = self._upfs.get(context.upf_name)
        new_upf = self._upfs.get(new_upf_name)
        if new_upf is None:
            raise KeyError(f"unknown UPF {new_upf_name}")
        if old_upf is not None:
            old_upf.remove_rule(context.tunnel_id)
        new_upf.install_rule(context.tunnel_id, context.address.to_ipv6(),
                             context.qos)
        context.upf_name = new_upf_name
        return context
