"""AMF: access and mobility management function.

Owns UE registration contexts: identity, current tracking area, the
NAS security context.  In the legacy architecture the AMF
also anchors the logical tracking area -- which is exactly what breaks
when the AMF rides a satellite (S3.2, "moving service areas").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..aka import derive_k_amf
from ..identifiers import Guti, GutiAllocator, Plmn, Supi
from .ausf import Ausf


@dataclass
class UeContext:
    """The AMF's per-UE registration state."""

    supi: Supi
    guti: Guti
    tracking_area: Tuple[int, int]
    k_amf: bytes
    session_ids: List[int] = field(default_factory=list)


class Amf:
    """Mobility anchor and NAS terminator."""

    def __init__(self, name: str, plmn: Plmn, ausf: Ausf):
        self.name = name
        self.plmn = plmn
        self.ausf = ausf
        self._guti_allocator = GutiAllocator(plmn, 1)
        self._contexts: Dict[str, UeContext] = {}
        self.registrations = 0

    # -- registration (C1) ---------------------------------------------------

    def register(self, supi: Supi, tracking_area: Tuple[int, int],
                 k_seaf: bytes) -> UeContext:
        """Create (or refresh) a UE context after successful AKA."""
        guti = self._guti_allocator.allocate()
        context = UeContext(
            supi=supi,
            guti=guti,
            tracking_area=tracking_area,
            k_amf=derive_k_amf(k_seaf, str(supi)),
        )
        old = self._contexts.get(str(supi))
        if old is not None:
            self._guti_allocator.release(old.guti)
        self._contexts[str(supi)] = context
        self.registrations += 1
        return context

    def context(self, supi: Supi) -> Optional[UeContext]:
        """The registration context for a SUPI, if registered."""
        return self._contexts.get(str(supi))
