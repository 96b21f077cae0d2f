"""Per-satellite state footprint: what each design stores on board.

The flip side of Fig. 19: the states a satellite *stores* are both its
attack surface and its memory bill.  SkyCore pre-provisions every
subscriber's security context; Baoyun/DPCM hold the footprint's active
contexts; SpaceCore holds only ephemeral serving-session state that
evaporates on release.

Sizes come from the real serialized objects (the S1-S5 bundle and the
authentication vector), not guesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..baselines.base import ACTIVE_FRACTION, Solution, StateResidency
from ..baselines.solutions import ALL_SOLUTIONS
from ..fiveg.aka import generate_vector
from ..fiveg.state import (
    IdentifierState,
    LocationState,
    SessionState,
)

#: Serialized size of one S1-S5 session bundle (measured).
_BUNDLE_BYTES = len(SessionState(
    identifiers=IdentifierState("imsi-460000000000001", 1, 1000,
                                "guti-460000-1-00000000"),
    location=LocationState((0, 0), (0, 0), "2001:db8::1"),
).to_bytes())

#: Serialized size of one authentication vector (measured).
_VECTOR_BYTES = len(generate_vector(b"k" * 32, "5G:460000",
                                    rand=b"r" * 16).serialize())

#: Radio-layer context per connected UE (AS keys + bearer config).
_RADIO_CONTEXT_BYTES = 256


@dataclass(frozen=True)
class StateFootprint:
    """On-board state inventory for one design point."""

    solution: str
    stored_items: float
    stored_bytes: float

    @property
    def stored_megabytes(self) -> float:
        return self.stored_bytes / 1e6


def satellite_state_footprint(solution: Solution, capacity: int,
                              total_subscribers: int) -> StateFootprint:
    """What one satellite holds at steady state."""
    residency = solution.state_residency
    if residency is StateResidency.ALL_SUBSCRIBERS:
        items = float(total_subscribers)
        size = items * (_BUNDLE_BYTES + _VECTOR_BYTES)
    elif residency is StateResidency.ACTIVE_CONTEXTS:
        items = float(capacity)
        size = items * _BUNDLE_BYTES
    elif residency is StateResidency.RELAY_ONLY:
        items = capacity * ACTIVE_FRACTION
        size = items * _RADIO_CONTEXT_BYTES
    else:  # StateResidency.NONE -- SpaceCore
        items = capacity * ACTIVE_FRACTION
        size = items * (_BUNDLE_BYTES + _RADIO_CONTEXT_BYTES)
    return StateFootprint(solution.name, items, size)


def footprint_comparison(capacity: int = 30_000,
                         total_subscribers: int = 100_000_000
                         ) -> List[StateFootprint]:
    """All five solutions' on-board state bills."""
    return [satellite_state_footprint(factory(), capacity,
                                      total_subscribers)
            for factory in ALL_SOLUTIONS]
