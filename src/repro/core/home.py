"""The SpaceCore terrestrial home: control root + state authority (S4.4).

The home is the only entity that may update delegated states (except
S2 location reports and S5 per-session keys).  It receives usage
reports from satellites, reruns policy, re-signs and re-encrypts the
bundle, and pushes the new version to the UE.  It also owns satellite
revocation: ABE policies carry an *epoch* attribute, so rotating the
epoch (and re-keying every non-revoked satellite) instantly locks a
hijacked satellite out of all future state replicas -- the Appendix B
counter-measure.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..crypto import abe
from ..crypto.access_tree import PolicyNode, and_, attr, or_
from ..fiveg.core import CoreNetwork, SatelliteCredentials
from ..fiveg.identifiers import Plmn
from ..fiveg.procedures import SpaceCoreRegistrar, build_state_bundle
from ..fiveg.state import SessionState
from ..fiveg.ue import StateReplica, UserEquipment

CellId = Tuple[int, int]


class SpaceCoreHome:
    """Wraps the legacy core with SpaceCore's state authority."""

    def __init__(self, plmn: Plmn = Plmn(460, 0)):
        self.core = CoreNetwork(plmn)
        self.registrar = SpaceCoreRegistrar(self.core)
        self.epoch = 0
        self._enrolled: Dict[str, SatelliteCredentials] = {}
        self.state_updates_pushed = 0

    # -- epoch-scoped satellite enrollment ----------------------------------------

    def _epoch_attributes(self) -> Tuple[str, ...]:
        return ("role:satellite", "cap:qos", "bandwidth>=10gbps",
                f"epoch:{self.epoch}")

    def enroll_satellite(self, satellite_id: str) -> SatelliteCredentials:
        """Install launch credentials bound to the current epoch.

        A revoked satellite can never re-enroll: the whole point of
        the Appendix B counter-measure is that its keys stay dead.
        """
        if self.core.is_revoked(satellite_id):
            raise ValueError(f"{satellite_id} is revoked and cannot "
                             "be re-enrolled")
        credentials = self.core.enroll_satellite(
            satellite_id, self._epoch_attributes())
        self._enrolled[satellite_id] = credentials
        return credentials

    def revoke_satellite(self, satellite_id: str) -> None:
        """Hijack response: epoch rotation + re-key survivors.

        The revoked satellite keeps its old-epoch key, which no new
        ciphertext will ever satisfy again.
        """
        self.core.revoke_satellite(satellite_id)
        self._enrolled.pop(satellite_id, None)
        self.epoch += 1
        for sat_id in list(self._enrolled):
            self._enrolled[sat_id] = self.core.enroll_satellite(
                sat_id, self._epoch_attributes())

    def credentials_for(self, satellite_id: str
                        ) -> Optional[SatelliteCredentials]:
        """The current launch credentials of an enrolled satellite."""
        return self._enrolled.get(satellite_id)

    def state_policy(self, supi: str) -> PolicyNode:
        """Access tree A: the UE itself, or an epoch-current satellite."""
        return or_(
            and_(attr("role:ue"), attr(f"supi:{supi}")),
            and_(attr("role:satellite"), attr("cap:qos"),
                 attr("bandwidth>=10gbps"), attr(f"epoch:{self.epoch}")),
        )

    # -- registration & delegation ---------------------------------------------------

    def register(self, ue: UserEquipment, home_cell: CellId,
                 ue_cell: CellId, now: float):
        """C1 with delegation, re-encrypting under the epoch policy."""
        session = self.registrar.register_and_delegate(
            ue, home_cell, ue_cell, now)
        # The registrar encrypts under the static paper-example policy;
        # re-delegate under the epoch-scoped one so revocation bites.
        context = self.core.amf.context(ue.supi)
        bundle = build_state_bundle(session, context, ue_cell)
        ue.replica = self._wrap(bundle, ue, now)
        return session

    def _wrap(self, bundle: SessionState, ue: UserEquipment,
              now: float) -> StateReplica:
        serialized = bundle.to_bytes()
        signature = self.core.home_signing_key.sign(serialized)
        ciphertext = abe.encrypt(self.core.abe_master, serialized,
                                 self.state_policy(str(ue.supi)))
        return StateReplica(ciphertext=ciphertext, signature=signature,
                            version=bundle.version, issued_at=now)

    # -- home-controlled updates (S4.4) ------------------------------------------------

    def apply_usage_report(self, ue: UserEquipment, bundle: SessionState,
                           bytes_used: int,
                           now: float = 0.0) -> SessionState:
        """Session modification after a satellite usage report.

        Charges the billing state, reruns dynamic policy (e.g. the
        15GB/128Kbps throttle), bumps the version, and re-delegates.
        """
        used_mb = bytes_used / 1e6
        billing = bundle.billing.charge(used_mb)
        qos, billing = self.core.pcf.reevaluate(bundle.qos, billing)
        updated = dataclasses.replace(bundle, qos=qos,
                                      billing=billing).bump_version()
        ue.store_replica(self._wrap(updated, ue, now))
        self.state_updates_pushed += 1
        return updated

    # -- pass-through helpers -----------------------------------------------------------

    def provision_subscriber(self, msin: int, lat: float = 0.0,
                             lon: float = 0.0,
                             **overrides) -> UserEquipment:
        """Provision a SIM in the wrapped core and return its UE."""
        return self.core.provision_subscriber(msin, lat, lon, **overrides)

    @property
    def verify_key(self):
        return self.core.home_verify_key
