"""Tests for access trees and attribute-based encryption (S4.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    AbeDecryptionError,
    and_,
    attr,
    decrypt,
    encrypt,
    keygen,
    or_,
    satisfies,
    serving_satellite_policy,
    setup,
)
from repro.crypto.abe import _keystream, _xor
from repro.crypto.access_tree import Gate


@pytest.fixture(scope="module")
def authority():
    return setup()


class TestAccessTree:
    def test_leaf_satisfaction(self):
        assert satisfies(attr("a"), {"a"})
        assert not satisfies(attr("a"), {"b"})

    def test_and_gate(self):
        policy = and_(attr("a"), attr("b"))
        assert satisfies(policy, {"a", "b"})
        assert not satisfies(policy, {"a"})

    def test_or_gate(self):
        policy = or_(attr("a"), attr("b"))
        assert satisfies(policy, {"a"})
        assert satisfies(policy, {"b"})
        assert not satisfies(policy, {"c"})

    def test_threshold_gate(self):
        policy = Gate(2, (attr("a"), attr("b"), attr("c")))
        assert satisfies(policy, {"a", "c"})
        assert not satisfies(policy, {"a"})

    def test_nested_policy(self):
        policy = or_(and_(attr("a"), attr("b")), attr("c"))
        assert satisfies(policy, {"c"})
        assert satisfies(policy, {"a", "b"})
        assert not satisfies(policy, {"a"})

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate(0, (attr("a"),))
        with pytest.raises(ValueError):
            Gate(3, (attr("a"), attr("b")))
        with pytest.raises(ValueError):
            Gate(1, ())

    def test_paper_example_policy(self):
        """S4.4's example: the UE itself, or a capable satellite."""
        policy = serving_satellite_policy()
        assert satisfies(policy, {"role:ue", "supi:self"})
        assert satisfies(policy, {"role:satellite", "cap:qos",
                                  "bandwidth>=10gbps"})
        assert not satisfies(policy, {"role:satellite"})
        assert not satisfies(policy, {"role:ue"})


class TestXor:
    @pytest.mark.parametrize("data_len,stream_len", [
        (0, 0), (0, 64), (1, 1), (1, 64), (146, 146), (146, 192),
        (16, 7)])
    def test_matches_per_byte_zip(self, data_len, stream_len):
        """One big-int XOR, same bytes as the per-byte ``zip`` loop it
        replaced -- leading zero bytes kept, truncated to the shorter
        input."""
        data = (b"\x00" + _keystream(b"d", b"data", data_len))[:data_len]
        stream = _keystream(b"k", b"stream", stream_len)
        expected = bytes(a ^ b for a, b in zip(data, stream))
        assert _xor(data, stream) == expected
        assert len(_xor(data, stream)) == min(data_len, stream_len)


class TestAbeRoundtrip:
    def test_authorized_decrypts(self, authority):
        _, msk = authority
        policy = and_(attr("a"), attr("b"))
        ct = encrypt(msk, b"hello states", policy)
        key = keygen(msk, ["a", "b"])
        assert decrypt(key, ct) == b"hello states"

    def test_unauthorized_fails(self, authority):
        _, msk = authority
        policy = and_(attr("a"), attr("b"))
        ct = encrypt(msk, b"secret", policy)
        key = keygen(msk, ["a"])
        with pytest.raises(AbeDecryptionError):
            decrypt(key, ct)

    def test_extra_attributes_still_decrypt(self, authority):
        _, msk = authority
        ct = encrypt(msk, b"x", attr("a"))
        key = keygen(msk, ["a", "b", "c"])
        assert decrypt(key, ct) == b"x"

    def test_or_policy_either_branch(self, authority):
        _, msk = authority
        ct = encrypt(msk, b"y", or_(attr("a"), attr("b")))
        assert decrypt(keygen(msk, ["a"]), ct) == b"y"
        assert decrypt(keygen(msk, ["b"]), ct) == b"y"

    def test_threshold_policy(self, authority):
        _, msk = authority
        ct = encrypt(msk, b"z", Gate(2, (attr("a"), attr("b"), attr("c"))))
        assert decrypt(keygen(msk, ["b", "c"]), ct) == b"z"
        with pytest.raises(AbeDecryptionError):
            decrypt(keygen(msk, ["c"]), ct)

    def test_different_authority_cannot_decrypt(self, authority):
        _, msk = authority
        _, foreign_msk = setup()
        ct = encrypt(msk, b"w", attr("a"))
        foreign_key = keygen(foreign_msk, ["a"])
        with pytest.raises(AbeDecryptionError):
            decrypt(foreign_key, ct)

    def test_tampered_payload_detected(self, authority):
        _, msk = authority
        ct = encrypt(msk, b"untouched", attr("a"))
        import dataclasses
        tampered = dataclasses.replace(
            ct, payload=bytes([ct.payload[0] ^ 1]) + ct.payload[1:])
        with pytest.raises(AbeDecryptionError):
            decrypt(keygen(msk, ["a"]), tampered)

    def test_empty_plaintext(self, authority):
        _, msk = authority
        ct = encrypt(msk, b"", attr("a"))
        assert decrypt(keygen(msk, ["a"]), ct) == b""

    def test_large_plaintext(self, authority):
        _, msk = authority
        blob = bytes(range(256)) * 64
        ct = encrypt(msk, blob, attr("a"))
        assert decrypt(keygen(msk, ["a"]), ct) == blob

    def test_ciphertexts_are_randomised(self, authority):
        _, msk = authority
        a = encrypt(msk, b"same", attr("a"))
        b = encrypt(msk, b"same", attr("a"))
        assert a.payload != b.payload or a.nonce != b.nonce

    def test_keygen_requires_attributes(self, authority):
        _, msk = authority
        with pytest.raises(ValueError):
            keygen(msk, [])

    def test_ciphertext_size_grows_with_policy(self, authority):
        _, msk = authority
        small = encrypt(msk, b"m", attr("a"))
        big = encrypt(msk, b"m", and_(*[attr(f"x{i}") for i in range(8)]))
        assert big.size_bytes() > small.size_bytes()

    @given(st.sets(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1))
    @settings(max_examples=30, deadline=None)
    def test_decryption_iff_satisfaction(self, holder_attrs):
        """The functional contract: decrypt succeeds iff A(S) = true."""
        _, msk = setup()
        policy = or_(and_(attr("a"), attr("b")),
                     Gate(2, (attr("c"), attr("d"), attr("e"))))
        ct = encrypt(msk, b"payload", policy)
        key = keygen(msk, holder_attrs)
        if satisfies(policy, holder_attrs):
            assert decrypt(key, ct) == b"payload"
        else:
            with pytest.raises(AbeDecryptionError):
                decrypt(key, ct)
