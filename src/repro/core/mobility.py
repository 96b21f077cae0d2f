"""Geospatial mobility management (S4.3).

Classifies every mobility event and decides which signaling -- if any
-- it triggers.  The central result: *satellite* mobility over a
static UE triggers nothing (idle) or a short local handover (active),
never a mobility registration, because geospatial cells do not move.
UE mobility only matters when it crosses a cell boundary, which the
Table 3 cell sizes make rare.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from ..geo.cells import GeospatialCellGrid

CellId = Tuple[int, int]


class MobilityEvent(Enum):
    """What happened."""

    SATELLITE_PASS_IDLE = "satellite-pass-idle"
    SATELLITE_PASS_ACTIVE = "satellite-pass-active"
    BEAM_HANDOVER = "beam-handover"
    UE_MOVED_WITHIN_CELL = "ue-moved-within-cell"
    UE_CROSSED_CELL = "ue-crossed-cell"


class MobilityAction(Enum):
    """The signaling SpaceCore runs in response."""

    NONE = "none"
    LOCAL_HANDOVER = "local-handover-with-replica"
    HOME_REGISTRATION = "home-mobility-registration"


@dataclass(frozen=True)
class MobilityDecision:
    event: MobilityEvent
    action: MobilityAction
    reason: str


class GeospatialMobilityManager:
    """Event classifier for the SpaceCore mobility rules of S4.3."""

    def __init__(self, grid: GeospatialCellGrid):
        self.grid = grid

    def on_satellite_pass(self, ue_connected: bool) -> MobilityDecision:
        """A new satellite takes over coverage of a static UE."""
        if not ue_connected:
            return MobilityDecision(
                MobilityEvent.SATELLITE_PASS_IDLE,
                MobilityAction.NONE,
                "idle UE: geospatial cell unchanged, Algorithm 1 still "
                "reaches it; no state updates needed",
            )
        return MobilityDecision(
            MobilityEvent.SATELLITE_PASS_ACTIVE,
            MobilityAction.LOCAL_HANDOVER,
            "active UE: piggyback the state replica to the new "
            "satellite in the handover confirm",
        )

    def on_beam_change(self) -> MobilityDecision:
        """Antenna switch on the same satellite: physical layer only."""
        return MobilityDecision(
            MobilityEvent.BEAM_HANDOVER,
            MobilityAction.NONE,
            "beam handover happens below the core; no state operations",
        )

    def on_ue_move(self, old_lat: float, old_lon: float,
                   new_lat: float, new_lon: float) -> MobilityDecision:
        """The UE physically moved; did it leave its geospatial cell?"""
        old_cell = self.grid.cell_of(old_lat, old_lon)
        new_cell = self.grid.cell_of(new_lat, new_lon)
        if old_cell == new_cell:
            return MobilityDecision(
                MobilityEvent.UE_MOVED_WITHIN_CELL,
                MobilityAction.NONE,
                "same geospatial cell: address and states unchanged",
            )
        return MobilityDecision(
            MobilityEvent.UE_CROSSED_CELL,
            MobilityAction.HOME_REGISTRATION,
            f"cell crossing {old_cell} -> {new_cell}: the home "
            "re-authenticates, re-allocates the geospatial address and "
            "refreshes the delegated states",
        )

    # -- rate accounting for the experiments ------------------------------------------

    def registration_rate_static_user(self) -> float:
        """Mobility registrations/s a *static* UE causes: exactly zero.

        This is the headline elimination of S4.3 (Fig. 16 caption: "C4
        is eliminated by geospatial mobility management").
        """
        return 0.0
