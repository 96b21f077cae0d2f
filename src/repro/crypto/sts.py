"""Station-to-station key agreement (Algorithm 2, lines 9-14).

After the UE hands its encrypted state replica to a serving satellite,
the two run an authenticated Diffie-Hellman to derive a per-session key
K.  The paper bases this on the station-to-station protocol [127]:
ephemeral DH plus signatures over both exponentials, which defeats
man-in-the-middle relays (Appendix B).  A fresh K per session
establishment gives the forward secrecy the paper claims ("updates
this security key for every session establishment").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

from .group import SCHNORR_GROUP, SchnorrGroup
from .signatures import Certificate, SigningKey, VerifyKey


class KeyAgreementError(Exception):
    """Raised when authentication fails during the exchange."""


@dataclass(frozen=True)
class InitiatorHello:
    """UE -> satellite: ``X = g^x`` (line 10), plus the state blob id."""

    exponential: int


@dataclass(frozen=True)
class ResponderReply:
    """Satellite -> UE: ``Y``, its certificate, and a signature over
    (Y, X) proving possession of the certified key (line 13)."""

    exponential: int
    certificate: Certificate
    signature: Tuple[int, int]


@dataclass
class SessionKey:
    """The agreed key K plus transcript metadata."""

    key: bytes
    initiator_exponential: int
    responder_exponential: int


def _kdf(shared: int, x_pub: int, y_pub: int,
         group: SchnorrGroup) -> bytes:
    material = b"|".join((b"sts", group.element_bytes(shared),
                          group.element_bytes(x_pub),
                          group.element_bytes(y_pub)))
    return hashlib.sha256(material).digest()


def _transcript(x_pub: int, y_pub: int, group: SchnorrGroup) -> bytes:
    return b"|".join((b"sts-transcript", group.element_bytes(y_pub),
                      group.element_bytes(x_pub)))


class Initiator:
    """The UE side of Algorithm 2."""

    def __init__(self, home_verify_key: VerifyKey,
                 group: SchnorrGroup = SCHNORR_GROUP):
        self.group = group
        self.home_verify_key = home_verify_key
        self._x = group.random_scalar()
        self.hello = InitiatorHello(group.generate(self._x))

    def finish(self, reply: ResponderReply) -> SessionKey:
        """Verify the satellite and derive K (line 14).

        Checks, in order: the certificate chains to the home; the
        signature covers both exponentials; the exponential is a valid
        group element.  Any failure aborts -- the UE then rolls back to
        the legacy home-routed procedure.
        """
        if not reply.certificate.verify(self.home_verify_key):
            raise KeyAgreementError("satellite certificate not from home")
        transcript = _transcript(self.hello.exponential, reply.exponential,
                                 self.group)
        if not reply.certificate.public_key.verify(transcript,
                                                   reply.signature):
            raise KeyAgreementError("satellite signature invalid")
        if not self.group.is_element(reply.exponential):
            raise KeyAgreementError("responder exponential not in group")
        shared = self.group.power(reply.exponential, self._x)
        return SessionKey(_kdf(shared, self.hello.exponential,
                               reply.exponential, self.group),
                          self.hello.exponential, reply.exponential)


class Responder:
    """The satellite side of Algorithm 2."""

    def __init__(self, certificate: Certificate, signing_key: SigningKey,
                 group: SchnorrGroup = SCHNORR_GROUP):
        self.group = group
        self.certificate = certificate
        self._signing_key = signing_key

    def respond(self, hello: InitiatorHello
                ) -> Tuple[ResponderReply, SessionKey]:
        """Lines 12-13: compute Y, K, and the authenticating signature."""
        if not self.group.is_element(hello.exponential):
            raise KeyAgreementError("initiator exponential not in group")
        y = self.group.random_scalar()
        y_pub = self.group.generate(y)
        shared = self.group.power(hello.exponential, y)
        transcript = _transcript(hello.exponential, y_pub, self.group)
        reply = ResponderReply(y_pub, self.certificate,
                               self._signing_key.sign(transcript))
        key = SessionKey(_kdf(shared, hello.exponential, y_pub, self.group),
                         hello.exponential, y_pub)
        return reply, key


def agree(home_verify_key: VerifyKey, certificate: Certificate,
          satellite_key: SigningKey) -> Tuple[SessionKey, SessionKey]:
    """Run the whole exchange in-process (for tests and benchmarks)."""
    ue = Initiator(home_verify_key)
    sat = Responder(certificate, satellite_key)
    reply, sat_session = sat.respond(ue.hello)
    ue_session = ue.finish(reply)
    return ue_session, sat_session
