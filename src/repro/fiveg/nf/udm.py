"""UDM: unified data management (the subscriber database).

Holds every subscriber's permanent key and service profile, generates
authentication vectors, and de-conceals SUCIs.  In SpaceCore the UDM
always stays at the terrestrial home (S4.4: the home is the root of
trust); Option 4 of Fig. 6 is the configuration that dangerously puts
it on satellites.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Dict, Optional

from ...crypto.signatures import SigningKey
from ..aka import AuthenticationVector, generate_vector
from ..identifiers import Suci, Supi


@dataclass
class SubscriberProfile:
    """One subscription record."""

    supi: Supi
    permanent_key: bytes
    five_qi: int = 9
    priority: int = 8
    quota_mb: int = 15_000
    max_bitrate_up_kbps: int = 512
    max_bitrate_down_kbps: int = 896


class Udm:
    """The subscriber database and authentication-credential source."""

    def __init__(self, network_name: str, home_key: SigningKey):
        self.network_name = network_name
        self._home_key = home_key
        self._subscribers: Dict[str, SubscriberProfile] = {}
        self.vectors_generated = 0

    # -- provisioning -------------------------------------------------------

    def provision(self, supi: Supi,
                  permanent_key: Optional[bytes] = None,
                  **profile_overrides) -> SubscriberProfile:
        """Add a subscriber (what a SIM-provisioning system would do)."""
        key = permanent_key or secrets.token_bytes(32)
        profile = SubscriberProfile(supi, key, **profile_overrides)
        self._subscribers[str(supi)] = profile
        return profile

    def profile(self, supi: Supi) -> SubscriberProfile:
        """The subscription record for a SUPI; KeyError when unknown."""
        try:
            return self._subscribers[str(supi)]
        except KeyError:
            raise KeyError(f"unknown subscriber {supi}") from None

    def knows(self, supi: Supi) -> bool:
        """Whether this subscriber is provisioned here."""
        return str(supi) in self._subscribers

    # -- identity ----------------------------------------------------------

    def deconceal(self, suci: Suci) -> Supi:
        """SIDF role: recover the SUPI from a concealed identity."""
        supi = suci.deconceal(self._home_key)
        if not self.knows(supi):
            raise KeyError("SUCI resolves to an unknown subscriber")
        return supi

    # -- authentication -------------------------------------------------------

    def authentication_vector(self, supi: Supi,
                              serving_network: str
                              ) -> AuthenticationVector:
        """Generate a fresh 5G HE AV for one authentication run."""
        profile = self.profile(supi)
        self.vectors_generated += 1
        return generate_vector(profile.permanent_key, serving_network)
