"""UPF: user-plane function (packet gateway).

Holds per-session forwarding rules keyed by tunnel id, forwards user
traffic, and accumulates the usage counters the billing chain needs.
The *anchor* UPF (PSA-UPF) role of the legacy architecture is the
single-point bottleneck SpaceCore removes (S3.1, Fig. 5a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..qos import QosShaper
from ..state import QosState


@dataclass
class ForwardingEntry:
    """One installed packet-forwarding rule set."""

    tunnel_id: int
    ue_address: str
    qos: QosState
    bytes_up: int = 0
    shaper: Optional[QosShaper] = None


class Upf:
    """A user-plane gateway (satellite-local or terrestrial anchor).

    With ``enforce_qos=True`` each forwarding rule carries a token-
    bucket shaper parameterised from the session's S3 state, and
    forwarding calls must supply the current time.
    """

    def __init__(self, name: str, is_anchor: bool = False,
                 enforce_qos: bool = False):
        self.name = name
        self.is_anchor = is_anchor
        self.enforce_qos = enforce_qos
        self._entries: Dict[int, ForwardingEntry] = {}
        self.packets_forwarded = 0
        self.packets_dropped = 0

    # -- rule management (P8) -------------------------------------------------

    def install_rule(self, tunnel_id: int, ue_address: str,
                     qos: QosState) -> ForwardingEntry:
        """Install a forwarding rule (P8), with a shaper when enforcing."""
        shaper = QosShaper(qos) if self.enforce_qos else None
        entry = ForwardingEntry(tunnel_id, ue_address, qos,
                                shaper=shaper)
        self._entries[tunnel_id] = entry
        return entry

    def remove_rule(self, tunnel_id: int) -> None:
        """Tear down a session's forwarding rule (no-op if absent)."""
        self._entries.pop(tunnel_id, None)

    @property
    def session_count(self) -> int:
        return len(self._entries)

    # -- data plane -----------------------------------------------------------

    def forward_uplink(self, tunnel_id: int, size_bytes: int,
                       now_s: Optional[float] = None) -> bool:
        """Forward one uplink packet; False when dropped.

        Drops happen when no rule matches or (with enforcement on and
        a timestamp supplied) when the session's shaper rejects it.
        """
        entry = self._entries.get(tunnel_id)
        if entry is None:
            self.packets_dropped += 1
            return False
        if (entry.shaper is not None and now_s is not None
                and not entry.shaper.admit_uplink(size_bytes, now_s)):
            self.packets_dropped += 1
            return False
        entry.bytes_up += size_bytes
        self.packets_forwarded += 1
        return True

    # -- billing support ---------------------------------------------------------

    def usage_report(self, tunnel_id: int) -> int:
        """Bytes forwarded, for the billing chain (S4)."""
        entry = self._entries.get(tunnel_id)
        return 0 if entry is None else entry.bytes_up
