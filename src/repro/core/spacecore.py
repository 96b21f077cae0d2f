"""SpaceCoreSystem: the assembled system of Fig. 14.

Ties together the constellation (orbits + topology + Algorithm 1
routing), the terrestrial home, the per-satellite stateless proxies,
and the UEs.  This is the top-level public API the examples use:

>>> from repro.core import SpaceCoreSystem
>>> from repro.orbits import starlink
>>> system = SpaceCoreSystem(starlink())
>>> ue = system.provision_ue(39.9, 116.4)     # Beijing, degrees
>>> system.register(ue, 0.0)                  # C1 through the home
>>> session = system.establish_session(ue)    # localized C2 (Fig. 16a)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..fiveg.bus import SignalingBus
from ..fiveg.identifiers import Plmn
from ..fiveg.ue import UserEquipment
from ..geo.addressing import GeospatialAddress
from ..geo.cells import GeospatialCellGrid
from ..orbits.constellation import Constellation
from ..orbits.coverage import serving_satellite
from ..orbits.groundstations import default_ground_stations
from ..orbits.propagator import IdealPropagator
from ..topology.grid import GridTopology
from ..topology.routing import GeospatialRouter, RouteResult
from .home import SpaceCoreHome
from .satellite import FallbackRequired, ServedSession, SpaceCoreSatellite

CellId = Tuple[int, int]


@dataclass
class DownlinkResult:
    """Outcome of a downlink delivery (Fig. 16b's stateless relay)."""

    route: RouteResult
    paged: bool
    serving_sat: Optional[int]


class SpaceCoreSystem:
    """The deployed SpaceCore of Fig. 14."""

    def __init__(self, constellation: Constellation,
                 plmn: Plmn = Plmn(460, 0)):
        self.constellation = constellation
        self.propagator = IdealPropagator(constellation)
        self.ground_stations = default_ground_stations()
        self.topology = GridTopology(self.propagator, self.ground_stations)
        self.router = GeospatialRouter(self.topology)
        self.grid = GeospatialCellGrid(constellation)
        self.home = SpaceCoreHome(plmn=plmn)
        self.bus = SignalingBus()
        self._satellites: Dict[int, SpaceCoreSatellite] = {}
        # Radio-layer attachment bookkeeping: which satellite a UE is
        # camped on right now.  RAN state, not core state -- it expires
        # with the radio session and is rebuilt from coverage geometry
        # on re-attach, never migrated (S4.3).
        self._ue_serving_sat: Dict[str, int] = {}  # repro: ignore[stateful-nf] -- ephemeral RAN attachment, rebuilt from geometry
        self._next_msin = 1

    # -- construction helpers ---------------------------------------------------------

    def satellite(self, sat_index: int) -> SpaceCoreSatellite:
        """The stateless proxy running on one satellite (lazy enroll).

        Revoked satellites that were never instantiated cannot be
        enrolled after the fact -- their credentials stay dead.
        """
        if sat_index not in self._satellites:
            sat_id = f"sat-{sat_index}"
            credentials = self.home.credentials_for(sat_id)
            if credentials is None:
                if self.home.core.is_revoked(sat_id):
                    raise FallbackRequired(
                        f"{sat_id} is revoked; pick another satellite")
                credentials = self.home.enroll_satellite(sat_id)
            self._satellites[sat_index] = SpaceCoreSatellite(
                sat_id, credentials, self.bus)
        return self._satellites[sat_index]

    def provision_ue(self, lat_deg: float, lon_deg: float
                     ) -> UserEquipment:
        """Provision a subscriber at a terrestrial location (degrees)."""
        ue = self.home.provision_subscriber(
            self._next_msin, math.radians(lat_deg), math.radians(lon_deg))
        self._next_msin += 1
        return ue

    # -- coverage -----------------------------------------------------------------------

    def serving_satellite_of(self, ue: UserEquipment,
                             t: float = 0.0) -> int:
        """Flat index of the satellite covering a UE (-1 when none)."""
        return serving_satellite(self.propagator, t, ue.lat, ue.lon)

    def live_serving_satellite_of(self, ue: UserEquipment,
                                  t: float = 0.0) -> int:
        """The closest *live* covering satellite (-1 when none).

        Unlike the purely geometric :meth:`serving_satellite_of`, dead
        satellites are skipped -- a UE under churn attaches to the best
        survivor instead of a corpse.
        """
        return self.topology.live_access_satellite(ue.lat, ue.lon, t)

    def cell_of(self, ue: UserEquipment) -> CellId:
        """The UE's geospatial cell id."""
        return self.grid.cell_of(ue.lat, ue.lon)

    # -- control-plane procedures ----------------------------------------------------------

    def register(self, ue: UserEquipment, t: float):
        """C1: authenticate with the home and receive the state replica;
        the UE's current cell becomes its home cell."""
        ue_cell = self.cell_of(ue)
        return self.home.register(ue, ue_cell, ue_cell, t)

    def establish_session(self, ue: UserEquipment, t: float = 0.0,
                          allow_fallback: bool = False) -> ServedSession:
        """Localized C2 (Fig. 16a) on the current serving satellite.

        With ``allow_fallback`` the S4.2 roll-back runs when the local
        path fails (unauthorized satellite, stale replica, ...): the
        home re-registers the UE and refreshes its replica over the
        legacy path, then the local establishment retries -- slower,
        but service continues.  Without it, the failure surfaces as
        :class:`FallbackRequired` for the caller to handle.
        """
        sat_index = self.live_serving_satellite_of(ue, t)
        if sat_index < 0:
            raise FallbackRequired("no live satellite covers this UE")
        satellite = self.satellite(sat_index)
        try:
            served = satellite.establish_session_locally(
                ue, t, self.home.verify_key)
        except FallbackRequired:
            if not allow_fallback:
                raise
            served = self._legacy_fallback(ue, satellite, t)
        self._ue_serving_sat[str(ue.supi)] = sat_index
        return served

    def _legacy_fallback(self, ue: UserEquipment,
                         satellite: SpaceCoreSatellite,
                         t: float) -> ServedSession:
        """The S4.2 roll-back: contact the home over the ISL path.

        The home re-runs registration + delegation (a fresh replica
        under the current epoch policy, fixing stale/garbled copies),
        after which the local establishment succeeds -- unless the
        satellite itself is revoked, in which case the failure is
        final for this satellite.
        """
        self.register(ue, t)
        return satellite.establish_session_locally(
            ue, t, self.home.verify_key)

    def handover(self, ue: UserEquipment, t: float) -> Optional[int]:
        """Inter-satellite handover when coverage moves (S4.3).

        Returns the new serving satellite index, or None when the
        serving satellite is unchanged.
        """
        supi = str(ue.supi)
        current = self._ue_serving_sat.get(supi)
        new_sat = self.live_serving_satellite_of(ue, t)
        if new_sat < 0 or new_sat == current:
            return None
        if current is None or not ue.connected:
            return None
        target = self.satellite(new_sat)
        target.handover_in(ue, self.satellite(current), t)
        self._ue_serving_sat[supi] = new_sat
        return new_sat

    def release(self, ue: UserEquipment) -> None:
        """RRC inactivity release: ephemeral satellite state evaporates."""
        supi = str(ue.supi)
        sat = self._ue_serving_sat.pop(supi, None)
        if sat is not None:
            self.satellite(sat).release_session(supi)
        ue.connected = False

    # -- data plane -----------------------------------------------------------------------

    def send_uplink(self, ue: UserEquipment, size_bytes: int,
                    t: float = 0.0) -> bool:
        """Forward one uplink packet through the serving satellite."""
        supi = str(ue.supi)
        sat = self._ue_serving_sat.get(supi)
        if sat is None:
            return False
        return self.satellite(sat).forward_uplink(supi, size_bytes, t)

    def deliver_downlink(self, ingress_sat: int, dest: UserEquipment,
                         t: float = 0.0) -> DownlinkResult:
        """Fig. 16b: stateless geospatial relay + paging + local setup.

        The ingress satellite derives the destination's location from
        the geospatial address and relays via Algorithm 1; the covering
        satellite pages the UE, which then establishes locally.  An
        ``ingress_sat`` of -1 (what :meth:`serving_satellite_of` returns
        for an uncovered UE) raises ``ValueError`` from the router.
        """
        if dest.ip_address is None:
            raise ValueError("destination UE has no geospatial address")
        address = GeospatialAddress.from_ipv6(dest.ip_address)
        dest_lat, dest_lon = self.grid.cell_center(address.ue_cell)
        # Route toward the cell; exact user position refines the last hop.
        route = self.router.route(ingress_sat, dest.lat, dest.lon, t)
        if not route.delivered:
            return DownlinkResult(route, False, None)
        landing = route.path[-1]
        paged = self.satellite(landing).page(str(dest.supi))
        if paged and not dest.connected:
            try:
                self.satellite(landing).establish_session_locally(
                    dest, t, self.home.verify_key)
                self._ue_serving_sat[str(dest.supi)] = landing
            except FallbackRequired:
                paged = False
        return DownlinkResult(route, paged, landing)

    # -- failure recovery (S4.3) -----------------------------------------------------------

    def recover_from_satellite_failure(self, ue: UserEquipment,
                                       t: float) -> Optional[int]:
        """Re-attach a UE whose serving satellite just died.

        S4.3: "Upon satellite attacks/failures, the UE can quickly
        migrate to other available satellites and recover ... with its
        local state replicas."  No state migration from the dead node
        is needed -- the replica *is* the state.

        Returns the new serving satellite, or None when nothing covers
        the UE right now.
        """
        from ..orbits.snapshot import snapshot_for
        supi = str(ue.supi)
        self._ue_serving_sat.pop(supi, None)
        snap = snapshot_for(self.propagator, t)
        candidates = snap.visible_satellites(ue.lat, ue.lon)
        if len(candidates):
            angles = snap.central_angles(ue.lat, ue.lon)[candidates]
            # Nearest-first: re-attach at the highest elevation angle
            # that is still alive and willing.
            for idx in angles.argsort(kind="stable"):
                sat = int(candidates[idx])
                if not self.topology.is_up(sat):
                    continue
                try:
                    self.satellite(sat).establish_session_locally(
                        ue, t, self.home.verify_key)
                except FallbackRequired:
                    continue
                self._ue_serving_sat[supi] = sat
                return sat
        ue.connected = False
        return None
