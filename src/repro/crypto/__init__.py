"""Cryptographic substrate for home-controlled state updates (S4.4).

From-scratch implementations of the three primitives Algorithm 2
needs: ciphertext-policy ABE over access trees, Schnorr signatures and
certificates, and station-to-station Diffie-Hellman key agreement.
"""

from .abe import (
    AbeCiphertext,
    AbeDecryptionError,
    AbeError,
    AbeMasterKey,
    AbePrivateKey,
    AbePublicParams,
    decrypt,
    encrypt,
    keygen,
    setup,
)
from .access_tree import (
    Gate,
    Leaf,
    and_,
    attr,
    or_,
    satisfies,
    serving_satellite_policy,
)
from .group import SCHNORR_GROUP, SchnorrGroup, ShareField
from .signatures import (
    Certificate,
    SigningKey,
    VerifyKey,
    generate_keypair,
    issue_certificate,
)
from .sts import (
    Initiator,
    KeyAgreementError,
    Responder,
    SessionKey,
    agree,
)

__all__ = [
    "AbeCiphertext", "AbeDecryptionError", "AbeError", "AbeMasterKey",
    "AbePrivateKey", "AbePublicParams", "decrypt", "encrypt",
    "keygen", "setup",
    "Gate", "Leaf", "and_", "attr", "or_", "satisfies",
    "serving_satellite_policy",
    "SCHNORR_GROUP", "SchnorrGroup", "ShareField",
    "Certificate", "SigningKey", "VerifyKey", "generate_keypair",
    "issue_certificate",
    "Initiator", "KeyAgreementError", "Responder", "SessionKey", "agree",
]
