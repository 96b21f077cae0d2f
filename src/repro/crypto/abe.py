"""Ciphertext-policy attribute-based encryption (S4.4).

The home network encrypts a UE's delegated session states under an
access tree A; a satellite (or the UE) can decrypt if and only if its
attribute set satisfies A.  The paper uses OpenABE; we implement the
same *functional contract* from scratch:

* the policy is a threshold access tree (see ``access_tree``);
* the payload key is a Shamir secret shared down the tree, one share
  per leaf, each share wrapped under a per-attribute key;
* decryption recovers leaf shares for attributes the decryptor holds
  and reconstructs the secret bottom-up with Lagrange interpolation --
  possible exactly when the tree is satisfied;
* cost is linear in the number of attributes/leaves, which is the
  property Fig. 18a measures.

Per-attribute keys are derived from the master secret with a PRF
(HMAC-SHA256), so *encryption requires the master secret*.  In
SpaceCore only the home ever encrypts states (S4.4: "local state
updates by UEs or satellites are prohibited"), so the restriction
matches the deployment; a pairing-based construction would lift it
without changing any caller.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

from .access_tree import Gate, Leaf, PolicyNode
from .group import ShareField

_SHARE_BYTES = 16  # 127-bit field elements fit in 16 bytes


class AbeError(Exception):
    """Base class for ABE failures."""


class AbeDecryptionError(AbeError):
    """Raised when the attribute set does not satisfy the policy (or
    the ciphertext was tampered with)."""


@dataclass(frozen=True)
class AbeMasterKey:
    """The home's master secret (never leaves the home)."""

    secret: bytes

    def attribute_key(self, attribute: str) -> bytes:
        """PRF-derived symmetric key for one attribute."""
        return hmac.new(self.secret, b"attr|" + attribute.encode(),
                        hashlib.sha256).digest()


@dataclass(frozen=True)
class AbePublicParams:
    """Public parameters; identifies the authority."""

    authority_id: bytes


@dataclass(frozen=True)
class AbePrivateKey:
    """A decryptor's key: one wrapped key per attribute it holds."""

    attributes: FrozenSet[str]
    attribute_keys: Dict[str, bytes]

    def __post_init__(self) -> None:
        if set(self.attribute_keys) != set(self.attributes):
            raise ValueError("attribute keys must cover the attribute set")


@dataclass(frozen=True)
class AbeCiphertext:
    """An encrypted blob gated by an access tree."""

    policy: PolicyNode
    nonce: bytes
    wrapped_shares: Tuple[Tuple[int, str, bytes], ...]
    payload: bytes
    tag: bytes

    def size_bytes(self) -> int:
        """Approximate wire size (drives piggyback overhead accounting)."""
        share_bytes = sum(len(w) + len(a) + 4
                          for _, a, w in self.wrapped_shares)
        return len(self.nonce) + share_bytes + len(self.payload) + len(
            self.tag)


def setup() -> Tuple[AbePublicParams, AbeMasterKey]:
    """Algorithm 2 line 2: ``(pk, msk) <- Setup(1^lambda)``."""
    secret = secrets.token_bytes(32)
    authority = hashlib.sha256(b"authority|" + secret).digest()[:16]
    return AbePublicParams(authority), AbeMasterKey(secret)


def keygen(msk: AbeMasterKey,
           attributes: Iterable[str]) -> AbePrivateKey:
    """Algorithm 2 lines 3-4: derive a key for an attribute set."""
    attrs = frozenset(attributes)
    if not attrs:
        raise ValueError("a private key needs at least one attribute")
    return AbePrivateKey(attrs,
                         {a: msk.attribute_key(a) for a in attrs})


# ---------------------------------------------------------------------------
# Share plumbing
# ---------------------------------------------------------------------------

def _keystream(key: bytes, context: bytes, length: int) -> bytes:
    """A SHA-512 counter-mode keystream."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hashlib.sha512(key + context
                               + counter.to_bytes(4, "big")).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:length])


def _xor(data: bytes, stream: bytes) -> bytes:
    """Bytewise XOR, truncated to the shorter input like ``zip``."""
    n = min(len(data), len(stream))
    return (int.from_bytes(data[:n], "big")
            ^ int.from_bytes(stream[:n], "big")).to_bytes(n, "big")


def _distribute(node: PolicyNode, share: int, leaf_counter: List[int],
                out: List[Tuple[int, str, int]]) -> None:
    """Recursive Shamir share distribution down the access tree."""
    if isinstance(node, Leaf):
        index = leaf_counter[0]
        leaf_counter[0] += 1
        out.append((index, node.attribute, share))
        return
    assert isinstance(node, Gate)
    # Polynomial of degree threshold-1 with constant term = share.
    coefficients = [share] + [ShareField.random()
                              for _ in range(node.threshold - 1)]
    for child_pos, child in enumerate(node.children, start=1):
        child_share = ShareField.eval_poly(coefficients, child_pos)
        _distribute(child, child_share, leaf_counter, out)


def _recover(node: PolicyNode, leaf_shares: Dict[int, int],
             leaf_counter: List[int]):
    """Bottom-up reconstruction; returns the node share or None."""
    if isinstance(node, Leaf):
        index = leaf_counter[0]
        leaf_counter[0] += 1
        return leaf_shares.get(index)
    assert isinstance(node, Gate)
    recovered: List[Tuple[int, int]] = []
    for child_pos, child in enumerate(node.children, start=1):
        value = _recover(child, leaf_shares, leaf_counter)
        if value is not None:
            recovered.append((child_pos, value))
    if len(recovered) < node.threshold:
        return None
    return ShareField.lagrange_at_zero(recovered[:node.threshold])


# ---------------------------------------------------------------------------
# Encrypt / decrypt
# ---------------------------------------------------------------------------

def encrypt(msk: AbeMasterKey, plaintext: bytes,
            policy: PolicyNode) -> AbeCiphertext:
    """Algorithm 2 line 7: ``msg <- Encrypt(pk, state, A)``."""
    secret = ShareField.random()
    nonce = secrets.token_bytes(16)
    shares: List[Tuple[int, str, int]] = []
    _distribute(policy, secret, [0], shares)

    wrapped: List[Tuple[int, str, bytes]] = []
    for index, attribute, share in shares:
        attr_key = msk.attribute_key(attribute)
        context = nonce + index.to_bytes(4, "big")
        stream = _keystream(attr_key, context, _SHARE_BYTES)
        wrapped.append((index, attribute,
                        _xor(share.to_bytes(_SHARE_BYTES, "big"), stream)))

    payload_key = hashlib.sha256(
        secret.to_bytes(_SHARE_BYTES, "big") + nonce).digest()
    payload = _xor(plaintext, _keystream(payload_key, b"payload",
                                         len(plaintext)))
    tag = hmac.new(payload_key, nonce + payload, hashlib.sha256).digest()
    return AbeCiphertext(policy, nonce, tuple(wrapped), payload, tag)


def decrypt(key: AbePrivateKey, ciphertext: AbeCiphertext) -> bytes:
    """Algorithm 2 lines 8/11: succeeds iff ``A(S) = true``."""
    leaf_shares: Dict[int, int] = {}
    for index, attribute, wrapped in ciphertext.wrapped_shares:
        attr_key = key.attribute_keys.get(attribute)
        if attr_key is None:
            continue
        context = ciphertext.nonce + index.to_bytes(4, "big")
        stream = _keystream(attr_key, context, _SHARE_BYTES)
        leaf_shares[index] = int.from_bytes(_xor(wrapped, stream), "big")

    secret = _recover(ciphertext.policy, leaf_shares, [0])
    if secret is None:
        raise AbeDecryptionError(
            "attribute set does not satisfy the access policy")
    payload_key = hashlib.sha256(
        secret.to_bytes(_SHARE_BYTES, "big") + ciphertext.nonce).digest()
    expected = hmac.new(payload_key, ciphertext.nonce + ciphertext.payload,
                        hashlib.sha256).digest()
    if not hmac.compare_digest(expected, ciphertext.tag):
        raise AbeDecryptionError("integrity check failed")
    return _xor(ciphertext.payload,
                _keystream(payload_key, b"payload", len(ciphertext.payload)))
