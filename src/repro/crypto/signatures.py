"""Schnorr signatures: home-signed states and satellite certificates.

S4.4/Appendix B: states delegated to UEs are signed by the home so
neither UEs nor satellites can forge or modify them, and satellites
carry home-issued certificates (``CERT_sat`` in Algorithm 2) that UEs
verify during local key agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .group import SCHNORR_GROUP, SchnorrGroup


@dataclass(frozen=True)
class SigningKey:
    """A Schnorr private key."""

    x: int
    group: SchnorrGroup = SCHNORR_GROUP

    @property
    def public(self) -> "VerifyKey":
        return VerifyKey(self.group.generate(self.x), self.group)

    def sign(self, message: bytes) -> Tuple[int, int]:
        """Produce a (challenge, response) Schnorr signature."""
        k = self.group.random_scalar()
        r = self.group.generate(k)
        e = self.group.hash_to_scalar(self.group.element_bytes(r), message)
        s = (k + self.x * e) % self.group.q
        return e, s


@dataclass(frozen=True)
class VerifyKey:
    """A Schnorr public key."""

    y: int
    group: SchnorrGroup = SCHNORR_GROUP

    def verify(self, message: bytes, signature: Tuple[int, int]) -> bool:
        """Check a Schnorr signature over ``message``."""
        e, s = signature
        if not (0 <= e < self.group.q and 0 <= s < self.group.q):
            return False
        # g^s = r * y^e  =>  r = g^s * y^(-e) = g^s * y^(p - 1 - e) by
        # Fermat, for every y != 0 (mod p); p - 1 - e > 0, so the power
        # is 0 exactly when y = 0 (mod p): no inverse, signs nothing.
        p = self.group.p
        gs = self.group.generate(s)
        y_inv_e = self.group.power(self.y, p - 1 - e)
        if y_inv_e == 0:
            return False
        r = gs * y_inv_e % p
        expected = self.group.hash_to_scalar(self.group.element_bytes(r),
                                             message)
        return expected == e


def generate_keypair() -> Tuple[SigningKey, VerifyKey]:
    """A fresh Schnorr keypair."""
    x = SCHNORR_GROUP.random_scalar()
    sk = SigningKey(x)
    return sk, sk.public


@dataclass(frozen=True)
class Certificate:
    """A home-signed binding of an identity to a public key.

    ``CERT_sat`` in Algorithm 2: installed on satellites before launch,
    verified by UEs during the local key agreement (line 14).
    """

    subject: str
    public_key: VerifyKey
    issuer: str
    signature: Tuple[int, int]

    def message(self) -> bytes:
        """The canonical bytes the issuer signed."""
        return certificate_message(self.subject, self.public_key,
                                   self.issuer)

    def verify(self, issuer_key: VerifyKey) -> bool:
        """Check a Schnorr signature over ``message``."""
        return issuer_key.verify(self.message(), self.signature)


def certificate_message(subject: str, public_key: VerifyKey,
                        issuer: str) -> bytes:
    """Canonical byte encoding of a certificate body."""
    return b"|".join((b"cert", subject.encode(), issuer.encode(),
                      SCHNORR_GROUP.element_bytes(public_key.y)))


def issue_certificate(issuer_name: str, issuer_key: SigningKey,
                      subject: str, subject_key: VerifyKey) -> Certificate:
    """The home issues a certificate for a satellite (or itself)."""
    message = certificate_message(subject, subject_key, issuer_name)
    return Certificate(subject, subject_key, issuer_name,
                       issuer_key.sign(message))
