"""The assembled 5G core network (the terrestrial home).

Bundles UDM/AUSF/AMF/SMF/UPF/PCF into one home network with the PKI
and ABE authority SpaceCore layers on top.  The legacy baselines run
this core either on the ground (Options 1-2) or on satellites
(Options 3-4); SpaceCore always keeps it on the ground as the root of
trust.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..crypto import abe
from ..crypto.access_tree import PolicyNode, serving_satellite_policy
from ..crypto.signatures import (
    Certificate,
    SigningKey,
    generate_keypair,
    issue_certificate,
)
from ..geo.addressing import AddressAllocator
from .identifiers import Plmn, Supi
from .nf import Amf, Ausf, Pcf, Smf, Udm, Upf
from .ue import UserEquipment


@dataclass
class SatelliteCredentials:
    """What the home installs on a satellite before launch."""

    certificate: Certificate
    signing_key: SigningKey
    abe_key: abe.AbePrivateKey


class CoreNetwork:
    """The terrestrial home network: all control functions + PKI."""

    def __init__(self, plmn: Plmn = Plmn(460, 0)):
        self.name = "home"
        self.plmn = plmn
        # Home PKI (Algorithm 2 initialisation).
        self.home_signing_key, self.home_verify_key = generate_keypair()
        self.abe_params, self.abe_master = abe.setup()
        # Network functions.
        self.udm = Udm(self.name, self.home_signing_key)
        self.ausf = Ausf(self.udm)
        self.amf = Amf("home-amf", plmn, self.ausf)
        self.address_allocator = AddressAllocator(plmn.encode())
        self.smf = Smf("home-smf", self.address_allocator)
        self.pcf = Pcf()
        self.anchor_upf = Upf("home-anchor-upf", is_anchor=True)
        self.smf.attach_upf(self.anchor_upf)
        self._satellite_credentials: Dict[str, SatelliteCredentials] = {}
        self._revoked_satellites: set = set()

    # -- subscriber management ------------------------------------------------

    def provision_subscriber(self, msin: int,
                             lat: float = 0.0, lon: float = 0.0,
                             **profile_overrides) -> UserEquipment:
        """Provision a SIM and hand back the matching UE."""
        supi = Supi(self.plmn, msin)
        key = secrets.token_bytes(32)
        self.udm.provision(supi, key, **profile_overrides)
        return UserEquipment(supi, key, self.home_verify_key, lat, lon)

    # -- satellite onboarding (Algorithm 2 initialisation) -------------------------

    def enroll_satellite(self, satellite_id: str,
                         attributes: Optional[Tuple[str, ...]] = None
                         ) -> SatelliteCredentials:
        """Issue launch credentials: certificate + ABE attribute key."""
        if attributes is None:
            attributes = ("role:satellite", "cap:qos",
                          "bandwidth>=10gbps")
        sat_sk, sat_vk = generate_keypair()
        certificate = issue_certificate(self.name, self.home_signing_key,
                                        satellite_id, sat_vk)
        credentials = SatelliteCredentials(
            certificate=certificate,
            signing_key=sat_sk,
            abe_key=abe.keygen(self.abe_master, attributes),
        )
        self._satellite_credentials[satellite_id] = credentials
        return credentials

    def revoke_satellite(self, satellite_id: str) -> None:
        """Hijack response: invalidate the satellite (Appendix B).

        Subsequent state encryptions use a policy the revoked satellite
        cannot satisfy, and its certificate is blacklisted.
        """
        self._revoked_satellites.add(satellite_id)

    def is_revoked(self, satellite_id: str) -> bool:
        """Whether a satellite has been revoked by the home."""
        return satellite_id in self._revoked_satellites

    def state_policy(self, supi: Supi) -> PolicyNode:
        """The access tree A for one UE's delegated states (S4.4)."""
        return serving_satellite_policy()

    # -- convenience ------------------------------------------------------------

    @property
    def serving_network_name(self) -> str:
        return f"5G:{self.plmn.mcc:03d}{self.plmn.mnc:03d}"
