"""Seamless space-terrestrial integration (S4.5).

SpaceCore's terrestrial home is a legacy 5G core reachable by both
satellites and terrestrial base stations, which makes it the natural
coordinator when a UE moves between the two access domains:

* **idle** UEs run standard cell re-selection between satellite and
  terrestrial coverage -- no signaling at all;
* **connected** UEs hand over through the home, using the standard
  Fig. 9c machinery (the home controls both sides);
* the UE keeps one identity (SUPI) across domains, and its geospatial
  address remains valid: terrestrial attachment anchors it at the home.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from ..fiveg.bus import SignalingBus
from ..fiveg.messages import HANDOVER_FLOW, ProcedureKind
from ..fiveg.ue import UserEquipment
from ..orbits.coordinates import central_angle
from ..constants import EARTH_RADIUS_KM
from .satellite import FallbackRequired
from .spacecore import SpaceCoreSystem


class AccessDomain(Enum):
    """AccessDomain."""
    TERRESTRIAL = "terrestrial"
    SATELLITE = "satellite"
    NONE = "none"


@dataclass(frozen=True)
class TerrestrialBaseStation:
    """A conventional gNB wired to the home core."""

    name: str
    lat_deg: float
    lon_deg: float
    radius_km: float = 5.0

    def covers(self, lat: float, lon: float) -> bool:
        """Whether a (lat, lon) point in radians is inside the cell."""
        angle = central_angle(math.radians(self.lat_deg),
                              math.radians(self.lon_deg), lat, lon)
        return angle * EARTH_RADIUS_KM <= self.radius_km


@dataclass(frozen=True)
class AccessDecision:
    """Result of a re-selection or handover evaluation."""

    domain: AccessDomain
    target: Optional[str]
    reason: str


class IntegratedAccessManager:
    """Coordinates a UE between terrestrial 5G and SpaceCore satellites.

    Terrestrial coverage is preferred when available (standard
    reselection priority: it is cheaper and faster); satellites cover
    everything else.
    """

    def __init__(self, system: SpaceCoreSystem,
                 base_stations: List[TerrestrialBaseStation]):
        self.system = system
        self.base_stations = list(base_stations)
        self.bus = SignalingBus()
        self._domain: dict = {}
        self.reselections = 0
        self.cross_domain_handovers = 0

    # -- coverage -----------------------------------------------------------------

    def terrestrial_station_for(self, ue: UserEquipment
                                ) -> Optional[TerrestrialBaseStation]:
        """The gNB covering this UE's position, if any."""
        for station in self.base_stations:
            if station.covers(ue.lat, ue.lon):
                return station
        return None

    def best_access(self, ue: UserEquipment) -> AccessDecision:
        """What the UE should camp on at t = 0."""
        station = self.terrestrial_station_for(ue)
        if station is not None:
            return AccessDecision(
                AccessDomain.TERRESTRIAL, station.name,
                "terrestrial coverage available: higher reselection "
                "priority")
        satellite = self.system.serving_satellite_of(ue)
        if satellite >= 0:
            return AccessDecision(
                AccessDomain.SATELLITE, f"sat-{satellite}",
                "no terrestrial coverage: satellite access")
        return AccessDecision(AccessDomain.NONE, None,
                              "no coverage from either domain")

    def current_domain(self, ue: UserEquipment) -> AccessDomain:
        """The domain the UE last camped on or handed over to."""
        return self._domain.get(str(ue.supi), AccessDomain.NONE)

    # -- idle-mode reselection (S4.5: "standard cell re-selection") ----------------

    def reselect_idle(self, ue: UserEquipment) -> AccessDecision:
        """Idle-mode camping decision: free of core signaling."""
        if ue.connected:
            raise ValueError("reselection applies to idle UEs; use "
                             "handover() for connected ones")
        decision = self.best_access(ue)
        previous = self._domain.get(str(ue.supi))
        self._domain[str(ue.supi)] = decision.domain
        if previous is not None and previous != decision.domain:
            self.reselections += 1
        return decision

    # -- connected-mode handover ------------------------------------------------------

    def handover_connected(self, ue: UserEquipment) -> AccessDecision:
        """Cross-domain handover through the home (standard Fig. 9c).

        Satellite -> terrestrial (and back) uses the legacy home-
        controlled handover: the home anchors both domains, so the
        UE's session and geospatial identity survive.
        """
        if not ue.connected:
            raise ValueError("handover applies to connected UEs")
        decision = self.best_access(ue)
        previous = self._domain.get(str(ue.supi), AccessDomain.NONE)
        if decision.domain == previous or \
                decision.domain is AccessDomain.NONE:
            return decision
        for template in HANDOVER_FLOW:
            self.bus.send(template, ProcedureKind.HANDOVER.value)
        if decision.domain is AccessDomain.SATELLITE:
            # Entering the space domain: establish locally with the
            # replica, exactly as a satellite-to-satellite handover.
            try:
                self.system.establish_session(ue, 0.0)
            except FallbackRequired:
                return AccessDecision(AccessDomain.NONE, None,
                                      "satellite rejected the replica; "
                                      "roll back to the home")
        else:
            # Entering the terrestrial domain: the satellite-side
            # ephemeral state evaporates.
            self.system.release(ue)
            ue.connected = True  # still connected, via the gNB
        self._domain[str(ue.supi)] = decision.domain
        self.cross_domain_handovers += 1
        return decision
