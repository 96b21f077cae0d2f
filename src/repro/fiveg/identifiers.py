"""5G identifiers: SUPI, SUCI, GUTI/TMSI, PLMN.

The subset of TS 23.003 identity machinery the procedures need:

* SUPI -- the permanent subscriber identity (IMSI-shaped);
* SUCI -- the concealed SUPI sent over the air during registration
  (5G encrypts it under the home network's public key; we model the
  concealment with the same hybrid pattern over our Schnorr group);
* 5G-GUTI / 5G-TMSI -- the temporary identity the AMF assigns.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass

from ..crypto.signatures import SigningKey, VerifyKey


@dataclass(frozen=True)
class Plmn:
    """Public land mobile network: (MCC, MNC)."""

    mcc: int
    mnc: int

    def __post_init__(self) -> None:
        if not 0 <= self.mcc <= 999 or not 0 <= self.mnc <= 999:
            raise ValueError("MCC/MNC must be 3-digit codes")

    def encode(self) -> int:
        """32-bit encoding used as the address prefix (Fig. 15c)."""
        return self.mcc * 1000 + self.mnc


@dataclass(frozen=True)
class Supi:
    """Subscription permanent identifier (IMSI format)."""

    plmn: Plmn
    msin: int  # subscriber number within the PLMN

    def __post_init__(self) -> None:
        if not 0 <= self.msin < 10**10:
            raise ValueError("MSIN must be at most 10 digits")

    def __str__(self) -> str:
        return f"imsi-{self.plmn.mcc:03d}{self.plmn.mnc:03d}{self.msin:010d}"


@dataclass(frozen=True)
class Suci:
    """Subscription concealed identifier.

    The UE encrypts its MSIN under the home network's public key so
    passive listeners can never learn the permanent identity.  We use
    an ElGamal-style hybrid over the Schnorr group: the ciphertext
    carries an ephemeral exponential and the XOR-masked MSIN.
    """

    plmn: Plmn
    ephemeral: int
    masked_msin: bytes

    @classmethod
    def conceal(cls, supi: Supi, home_public: VerifyKey) -> "Suci":
        group = home_public.group
        r = group.random_scalar()
        ephemeral = group.generate(r)
        shared = group.power(home_public.y, r)
        mask = hashlib.sha256(
            b"suci" + group.element_bytes(shared)).digest()[:8]
        msin_bytes = supi.msin.to_bytes(8, "big")
        masked = bytes(a ^ b for a, b in zip(msin_bytes, mask))
        return cls(supi.plmn, ephemeral, masked)

    def deconceal(self, home_secret: SigningKey) -> Supi:
        """Only the home (UDM/SIDF) can recover the SUPI.

        Raises ``ValueError`` for an ephemeral outside the order-q
        subgroup: ``p - 1`` would put ``shared`` in ``{1, p - 1}`` and
        leak the parity of the home key.
        """
        group = home_secret.group
        if not group.is_element(self.ephemeral):
            raise ValueError("SUCI ephemeral is not a group element")
        shared = group.power(self.ephemeral, home_secret.x)
        mask = hashlib.sha256(
            b"suci" + group.element_bytes(shared)).digest()[:8]
        msin = int.from_bytes(
            bytes(a ^ b for a, b in zip(self.masked_msin, mask)), "big")
        return Supi(self.plmn, msin)


@dataclass(frozen=True)
class Guti:
    """5G globally unique temporary identity.

    ``tmsi`` doubles as the UE-suffix field of the geospatial address
    (Fig. 15c labels the last 32 bits "5G-TMSI").
    """

    plmn: Plmn
    amf_id: int
    tmsi: int

    def __post_init__(self) -> None:
        if not 0 <= self.tmsi < 2**32:
            raise ValueError("5G-TMSI is a 32-bit value")

    def __str__(self) -> str:
        return (f"guti-{self.plmn.mcc:03d}{self.plmn.mnc:03d}"
                f"-{self.amf_id:x}-{self.tmsi:08x}")


class GutiAllocator:
    """AMF-side TMSI allocation with reuse avoidance."""

    def __init__(self, plmn: Plmn, amf_id: int):
        self.plmn = plmn
        self.amf_id = amf_id
        self._used: set = set()

    def allocate(self) -> Guti:
        """Hand out a fresh, unused 5G-GUTI."""
        for _ in range(64):
            tmsi = secrets.randbelow(2**32)
            if tmsi not in self._used:
                self._used.add(tmsi)
                return Guti(self.plmn, self.amf_id, tmsi)
        raise RuntimeError("TMSI space exhausted (implausible)")

    def release(self, guti: Guti) -> None:
        """Return a GUTI's TMSI to the pool."""
        self._used.discard(guti.tmsi)
