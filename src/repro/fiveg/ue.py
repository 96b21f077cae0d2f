"""User equipment: SIM credentials, AKA client, and the state replica.

The UE is SpaceCore's state repository ("device-as-the-repository",
S4): after initial registration it stores the home-signed, ABE-wrapped
session state bundle and piggybacks it to serving satellites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..crypto.abe import AbeCiphertext
from ..crypto.signatures import VerifyKey
from .aka import ue_response
from .identifiers import Suci, Supi


@dataclass
class StateReplica:
    """The UE-held copy of its session states (S4.1 Step 3).

    ``ciphertext`` is the home-encrypted bundle only authorized
    satellites can open; ``signature`` is the home's signature over
    the serialized states, letting satellites detect UE-side
    manipulation (Appendix B).
    """

    ciphertext: AbeCiphertext
    signature: Tuple[int, int]
    version: int
    issued_at: float = 0.0

    def size_bytes(self) -> int:
        """Approximate wire size of the replica blob."""
        return self.ciphertext.size_bytes() + 128


class UserEquipment:
    """A terminal with a SIM and an optional SpaceCore proxy."""

    def __init__(self, supi: Supi, permanent_key: bytes,
                 home_public: VerifyKey,
                 lat: float = 0.0, lon: float = 0.0):
        self.supi = supi
        self._permanent_key = permanent_key
        self.home_public = home_public
        self.lat = lat
        self.lon = lon
        # Session state visible to the UE after registration.
        self.guti: Optional[str] = None
        self.ip_address: Optional[str] = None
        self.replica: Optional[StateReplica] = None
        self.k_ausf: Optional[bytes] = None
        self.connected = False

    # -- identity ----------------------------------------------------------------

    def conceal_identity(self) -> Suci:
        """Build the SUCI for over-the-air registration."""
        return Suci.conceal(self.supi, self.home_public)

    # -- authentication -------------------------------------------------------------

    def authenticate(self, serving_network: str, rand: bytes,
                     autn: bytes) -> bytes:
        """Answer a NAS authentication request; returns RES*.

        Raises ``ValueError`` when the network's AUTN is invalid (a
        satellite that cannot prove home authorisation).
        """
        res_star, k_ausf = ue_response(self._permanent_key,
                                       serving_network, rand, autn)
        self.k_ausf = k_ausf
        return res_star

    # -- state repository ------------------------------------------------------------

    def store_replica(self, replica: StateReplica) -> None:
        """Accept the home-delegated state bundle (end of C1)."""
        if self.replica is not None and replica.version < self.replica.version:
            raise ValueError("refusing to downgrade the state replica")
        self.replica = replica

    def piggyback_replica(self) -> StateReplica:
        """Hand the replica to a serving satellite (P1' of Fig. 16).

        The UE cannot read or alter the ciphertext; it only carries it.
        """
        if self.replica is None:
            raise RuntimeError(
                f"{self.supi} holds no state replica; register first")
        return self.replica

    def move_to(self, lat: float, lon: float) -> None:
        """UE mobility (rare cell crossings are handled by the home)."""
        self.lat = lat
        self.lon = lon
