"""Tests for 5G identifiers and AKA."""

import dataclasses
import random

import pytest

from repro.crypto import generate_keypair
from repro.fiveg.aka import (
    confirm_response,
    derive_k_amf,
    derive_k_seaf,
    generate_vector,
    ue_response,
)
from repro.fiveg.identifiers import Guti, GutiAllocator, Plmn, Suci, Supi


class TestPlmn:
    def test_encode_decode(self):
        plmn = Plmn(460, 0)
        assert Plmn.decode(plmn.encode()) == plmn

    def test_validation(self):
        with pytest.raises(ValueError):
            Plmn(1000, 0)
        with pytest.raises(ValueError):
            Plmn(460, -1)


class TestSupi:
    def test_string_format(self):
        supi = Supi(Plmn(460, 0), 1234567)
        assert str(supi) == "imsi-4600000001234567"

    def test_msin_range(self):
        with pytest.raises(ValueError):
            Supi(Plmn(460, 0), 10**10)


class TestSuci:
    def test_conceal_deconceal_roundtrip(self):
        home_sk, home_vk = generate_keypair(random.Random(1))
        supi = Supi(Plmn(460, 0), 987654)
        suci = Suci.conceal(supi, home_vk, random.Random(2))
        assert suci.deconceal(home_sk) == supi

    def test_concealment_hides_msin(self):
        """The SUCI must not contain the MSIN in the clear."""
        home_sk, home_vk = generate_keypair(random.Random(1))
        supi = Supi(Plmn(460, 0), 987654)
        suci = Suci.conceal(supi, home_vk, random.Random(2))
        msin_bytes = supi.msin.to_bytes(8, "big")
        assert suci.masked_msin != msin_bytes

    def test_concealment_randomised(self):
        home_sk, home_vk = generate_keypair(random.Random(1))
        supi = Supi(Plmn(460, 0), 987654)
        a = Suci.conceal(supi, home_vk)
        b = Suci.conceal(supi, home_vk)
        assert a.ephemeral != b.ephemeral

    def test_wrong_home_key_garbles(self):
        home_sk, home_vk = generate_keypair(random.Random(1))
        other_sk, _ = generate_keypair(random.Random(9))
        supi = Supi(Plmn(460, 0), 987654)
        suci = Suci.conceal(supi, home_vk)
        # The wrong key either yields a different subscriber or an
        # out-of-range MSIN that fails validation.
        try:
            recovered = suci.deconceal(other_sk)
        except ValueError:
            return
        assert recovered != supi

    def test_ephemeral_outside_the_subgroup_rejected(self):
        """``p - 1`` has order 2: ``shared`` would be 1 or ``p - 1`` by
        the parity of the home key.  0 and values ``>= p`` are not
        elements either; the check runs before any exponentiation."""
        home_sk, home_vk = generate_keypair(random.Random(1))
        supi = Supi(Plmn(460, 0), 987654)
        genuine = Suci.conceal(supi, home_vk, random.Random(2))
        p = home_vk.group.p
        for ephemeral in (p - 1, 0, p + genuine.ephemeral):
            forged = dataclasses.replace(genuine, ephemeral=ephemeral)
            with pytest.raises(ValueError, match="not a group element"):
                forged.deconceal(home_sk)
        assert genuine.deconceal(home_sk) == supi


class TestGuti:
    def test_tmsi_range(self):
        with pytest.raises(ValueError):
            Guti(Plmn(460, 0), 1, 2**32)

    def test_allocator_unique(self):
        alloc = GutiAllocator(Plmn(460, 0), 1, random.Random(0))
        gutis = {alloc.allocate().tmsi for _ in range(200)}
        assert len(gutis) == 200

    def test_release_allows_reuse(self):
        alloc = GutiAllocator(Plmn(460, 0), 1, random.Random(0))
        guti = alloc.allocate()
        alloc.release(guti)
        # No assertion on reuse -- just no exhaustion errors.
        for _ in range(10):
            alloc.allocate()


class TestAka:
    KEY = b"k" * 32
    SN = "5G:460000"

    def test_successful_mutual_authentication(self):
        vector = generate_vector(self.KEY, self.SN)
        res_star, k_ausf = ue_response(self.KEY, self.SN, vector.rand,
                                       vector.autn)
        assert confirm_response(vector, res_star)
        assert k_ausf == vector.k_ausf

    def test_fake_network_rejected_by_ue(self):
        """A base station without K cannot forge AUTN."""
        vector = generate_vector(self.KEY, self.SN)
        with pytest.raises(ValueError):
            ue_response(self.KEY, self.SN, vector.rand, b"\x00" * 16)

    def test_wrong_ue_key_rejected_by_network(self):
        vector = generate_vector(self.KEY, self.SN)
        wrong = b"x" * 32
        autn_for_wrong = generate_vector(wrong, self.SN,
                                         vector.rand).autn
        res_star, _ = ue_response(wrong, self.SN, vector.rand,
                                  autn_for_wrong)
        assert not confirm_response(vector, res_star)

    def test_serving_network_binding(self):
        """RES* binds to the serving network name (anti-redirect)."""
        v1 = generate_vector(self.KEY, "5G:460000")
        res_elsewhere, _ = ue_response(self.KEY, "5G:310410", v1.rand,
                                       v1.autn)
        assert not confirm_response(v1, res_elsewhere)

    def test_key_hierarchy_deterministic(self):
        vector = generate_vector(self.KEY, self.SN, rand=b"r" * 16)
        k_seaf = derive_k_seaf(vector.k_ausf, self.SN)
        k_amf = derive_k_amf(k_seaf, "imsi-001")
        assert k_seaf == derive_k_seaf(vector.k_ausf, self.SN)
        assert k_amf != k_seaf
        assert len(k_amf) == 32

    def test_vectors_are_fresh(self):
        v1 = generate_vector(self.KEY, self.SN)
        v2 = generate_vector(self.KEY, self.SN)
        assert v1.rand != v2.rand
        assert v1.xres_star != v2.xres_star
