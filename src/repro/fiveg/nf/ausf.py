"""AUSF: authentication server function.

Fronts the UDM during 5G-AKA: fetches vectors, confirms the UE's
RES*, and hands the anchor key K_SEAF to the AMF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..aka import (
    AuthenticationVector,
    confirm_response,
    derive_k_seaf,
)
from ..identifiers import Supi
from .udm import Udm


@dataclass
class PendingAuthentication:
    """An AKA run awaiting the UE's response."""

    supi: Supi
    vector: AuthenticationVector
    serving_network: str


class Ausf:
    """Authentication orchestration between AMF and UDM."""

    def __init__(self, udm: Udm):
        self.udm = udm
        self._pending: Dict[str, PendingAuthentication] = {}
        self.authentications_succeeded = 0
        self.authentications_failed = 0

    def start_authentication(self, supi: Supi, serving_network: str
                             ) -> Tuple[bytes, bytes]:
        """Fetch an AV from UDM; return (RAND, AUTN) for the UE."""
        vector = self.udm.authentication_vector(supi, serving_network)
        self._pending[str(supi)] = PendingAuthentication(
            supi, vector, serving_network)
        return vector.rand, vector.autn

    def confirm(self, supi: Supi, res_star: bytes) -> Optional[bytes]:
        """Check RES*; on success return K_SEAF for the AMF."""
        pending = self._pending.pop(str(supi), None)
        if pending is None:
            self.authentications_failed += 1
            return None
        if not confirm_response(pending.vector, res_star):
            self.authentications_failed += 1
            return None
        self.authentications_succeeded += 1
        return derive_k_seaf(pending.vector.k_ausf,
                             pending.serving_network)
