"""Tests for the Schnorr group, signatures, and station-to-station DH."""

import contextlib
import ctypes
import dataclasses
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    Initiator,
    KeyAgreementError,
    Responder,
    SCHNORR_GROUP,
    ShareField,
    agree,
    generate_keypair,
    issue_certificate,
)
from repro.crypto.group import SchnorrGroup, _fixed_base_table
from repro.crypto.signatures import Certificate, SigningKey, VerifyKey
from repro.crypto.sts import ResponderReply
from repro.topology import _walk_kernel

#: 4 has order 11 in Z_23^*: a one-row table next to the 64-row one.
TOY_GROUP = SchnorrGroup(p=23, q=11, g=4)


@contextlib.contextmanager
def _lane(lane):
    """Run the group operations on one lane: the compiled object, or
    what a host without a compiler gets (``load_kernel`` answers
    ``None``)."""
    if lane == "no-compiler":
        with mock.patch.object(_walk_kernel, "load_kernel",
                               lambda: None):
            yield
    elif _walk_kernel.load_kernel() is None:
        pytest.skip("no compiled kernel on this host")
    else:
        yield


#: Both lanes, for ``pytest.mark.parametrize``.
LANES = ["compiled", "no-compiler"]

#: Both groups the equivalence suites run on.
GROUPS = pytest.mark.parametrize("group", [SCHNORR_GROUP, TOY_GROUP],
                                 ids=["schnorr", "toy"])


class TestSchnorrGroup:
    def test_generator_has_order_q(self):
        g = SCHNORR_GROUP
        assert pow(g.g, g.q, g.p) == 1
        assert g.g != 1

    def test_safe_prime_relation(self):
        g = SCHNORR_GROUP
        assert g.p == 2 * g.q + 1

    def test_is_element(self):
        g = SCHNORR_GROUP
        assert g.is_element(g.generate(12345))
        assert not g.is_element(0)
        assert not g.is_element(g.p)

    def test_hash_to_scalar_in_range(self):
        g = SCHNORR_GROUP
        s = g.hash_to_scalar(b"abc", b"def")
        assert 0 <= s < g.q

    def test_hash_to_scalar_injective_framing(self):
        """Length framing: ("ab","c") and ("a","bc") must differ."""
        g = SCHNORR_GROUP
        assert g.hash_to_scalar(b"ab", b"c") != g.hash_to_scalar(b"a", b"bc")

    def test_random_scalar_deterministic_with_rng(self):
        g = SCHNORR_GROUP
        assert (g.random_scalar(random.Random(1))
                == g.random_scalar(random.Random(1)))

    @pytest.mark.parametrize("p, q, g", [
        (23, 7, 4),      # p != 2q + 1
        (47, 11, 4),     # the wrong q for a safe prime
        (23, 11, 1),     # the identity generates nothing
        (23, 11, 23),    # g outside 1 < g < p
        (23, 11, 5),     # a non-residue: order 22, not 11
        (SCHNORR_GROUP.p, SCHNORR_GROUP.q, SCHNORR_GROUP.p - 1),
    ])
    def test_only_safe_prime_groups_with_an_order_q_generator(self, p, q, g):
        """``is_element`` is the Legendre symbol, exact only here."""
        with pytest.raises(ValueError):
            SchnorrGroup(p=p, q=q, g=g)

    @GROUPS
    @pytest.mark.parametrize("lane", LANES)
    @given(st.integers(min_value=-2 ** 520, max_value=2 ** 520))
    @settings(max_examples=200, deadline=None)
    def test_is_element_matches_x_to_the_q(self, lane, group, x):
        g = group
        member = pow(g.g, x % g.q, g.p)
        edges = (0, 1, g.p - 1, g.p, g.p + 1, -1)
        with _lane(lane):
            for y in (x, x % g.p, member, g.p - member, member + g.p,
                      *edges):
                assert g.is_element(y) is (0 < y < g.p
                                           and pow(y, g.q, g.p) == 1)

    @pytest.mark.parametrize("lane", LANES)
    def test_is_element_exhaustive_on_the_toy_group(self, lane):
        g = TOY_GROUP
        members = {pow(g.g, k, g.p) for k in range(g.q)}
        assert len(members) == g.q
        with _lane(lane):
            for x in range(-g.p, 3 * g.p):
                assert g.is_element(x) is (x in members)
                assert g.is_element(x) is (0 < x < g.p
                                           and pow(x, g.q, g.p) == 1)

    def test_compiled_lane_takes_exactly_the_int_inputs(self):
        """``jacobi`` answers every ``int`` with ``0 < x < p`` and
        nothing else: a ``bool`` takes the Python form, and anything
        out of range the early ``False``."""
        g = SCHNORR_GROUP
        member = g.generate(5)
        with _lane("compiled"):
            kernel = _walk_kernel.load_kernel()
            with mock.patch.object(kernel, "jacobi",
                                   wraps=kernel.jacobi) as spy:
                for x in (member, g.p - member, 1, g.p - 1):
                    g.is_element(x)
                assert spy.call_count == 4
                for x in (0, g.p, -member, True, False):
                    g.is_element(x)
                assert spy.call_count == 4


class TestFixedBaseGenerate:
    """``generate`` is a fixed-base comb; builtin ``pow`` is the oracle."""

    @staticmethod
    def _reference(group, x):
        return pow(group.g, x % group.q, group.p)

    @pytest.mark.parametrize("lane", LANES)
    def test_edge_exponents_match_pow(self, lane):
        q = SCHNORR_GROUP.q
        edges = (0, 1, 255, 256, q - 1, q, q + 1, 2 ** 512, 2 ** 520,
                 -1, -q, True, False)
        with _lane(lane):
            for x in edges:
                for group in (SCHNORR_GROUP, TOY_GROUP):
                    assert group.generate(x) == self._reference(group, x)
                    # Any integer exponent, as pow itself defines it
                    # (negative = power of the inverse of g).
                    assert group.generate(x) == pow(group.g, x, group.p)
            for group in (SCHNORR_GROUP, TOY_GROUP):
                with pytest.raises(AttributeError):
                    group.generate(2.0)  # reduced, then to_bytes: no
                with pytest.raises(TypeError):
                    group.generate(None)

    @pytest.mark.parametrize("lane", LANES)
    @given(st.lists(st.integers(min_value=-2 ** 600, max_value=2 ** 600),
                    min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_matches_pow_on_two_interleaved_groups(self, lane, exponents):
        with _lane(lane):
            for x in exponents:
                for group in (SCHNORR_GROUP, TOY_GROUP):
                    assert group.generate(x) == self._reference(group, x)

    @GROUPS
    def test_compiled_lane_takes_exactly_the_int_exponents(self, group):
        with _lane("compiled"):
            kernel = _walk_kernel.load_kernel()
            with mock.patch.object(kernel, "fixed_base",
                                   wraps=kernel.fixed_base) as spy:
                for x in (0, 1, -1, group.q, 2 ** 600):
                    assert group.generate(x) == self._reference(group, x)
                assert spy.call_count == 5
                assert group.generate(True) == group.g
                assert spy.call_count == 5

    @pytest.mark.parametrize("lane", LANES)
    def test_alternating_groups_share_the_memo_without_rebuilds(self, lane):
        """One comb per group and lane: the compiled lane's is one
        buffer of 256 Montgomery-form entries of 64 bytes per byte of
        ``q`` (1 MiB for the 512-bit group), the Python lane's a row of
        256 ints per byte."""
        with _lane(lane):
            kernel = _walk_kernel.load_kernel()
            for group in (SCHNORR_GROUP, TOY_GROUP):
                group.generate(1)
            toy = _fixed_base_table(TOY_GROUP, kernel)
            big = _fixed_base_table(SCHNORR_GROUP, kernel)
            if kernel is None:
                assert [len(toy), len(big)] == [1, 64]
                assert {len(row) for row in big} == {256}
            else:
                assert [len(toy), len(big)] == [256 * 64, 64 * 256 * 64]
            misses = _fixed_base_table.cache_info().misses
            for x in range(2, 40):
                for group in (SCHNORR_GROUP, TOY_GROUP):
                    assert group.generate(x) == self._reference(group, x)
            assert _fixed_base_table.cache_info().misses == misses
            # Keyed on the group's value, not its identity.
            SchnorrGroup(p=23, q=11, g=4).generate(7)
            assert _fixed_base_table.cache_info().misses == misses

    def test_used_keys_pickle_no_larger_than_fresh_ones(self):
        """The table lives beside the group, never inside a key that is
        shipped to pool workers."""
        group = SCHNORR_GROUP
        sk = SigningKey(0xC0FFEE)
        vk = VerifyKey(pow(group.g, sk.x, group.p))
        cert = Certificate("sat-1", vk, "home", (1, 2))
        fresh = [len(pickle.dumps(obj)) for obj in (sk, vk, cert)]
        assert max(fresh) < 1024

        assert sk.public == vk
        signature = sk.sign(b"m")
        assert vk.verify(b"m", signature)
        assert not cert.verify(vk)
        used = [len(pickle.dumps(obj)) for obj in (sk, vk, cert)]
        assert used == fresh
        clone = pickle.loads(pickle.dumps(vk))
        assert clone == vk and clone.verify(b"m", signature)

        # ... nor does a key that keeps verifying on the compiled lane
        # (builtin ``pow`` on a host without one).
        for _ in range(10):
            assert vk.verify(b"m", signature)
        assert [len(pickle.dumps(obj)) for obj in (sk, vk, cert)] == fresh


def _bases(group):
    """Members, non-residues, the degenerate residues, values that
    ``pow`` reduces first and values it refuses."""
    p = group.p
    member = st.integers(min_value=0, max_value=2 ** 520).map(group.generate)
    return st.one_of(
        member,
        member.map(lambda y: p - y),  # -1 is a non-residue mod p = 3 (4)
        st.sampled_from([0, 1, 2, p - 1, p, p + 1, 2 * p - 1, 2 ** 512,
                         -1, -p, True, 2.0, None, "2"]),
        st.integers(min_value=-2 ** 520, max_value=2 ** 520))


def _exponents(group):
    p, q = group.p, group.q
    return st.one_of(
        st.sampled_from([0, 1, 2, 31, 32, q - 1, q, q + 1, p - 1, p,
                         2 ** 512 - 1, 2 ** 512, 2 ** 600, -1, -q,
                         1.0, None]),
        st.integers(min_value=-2 ** 600, max_value=2 ** 600))


class TestCompiledPower:
    """``power`` is builtin ``pow`` on both lanes, errors included."""

    @GROUPS
    @pytest.mark.parametrize("lane", LANES)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_power_is_pow(self, lane, group, data):
        base = data.draw(_bases(group), label="base")
        exponent = data.draw(_exponents(group), label="exponent")
        try:
            expected = pow(base, exponent, group.p)
        except (TypeError, ValueError) as error:
            # TypeError for a non-integer, ValueError for a negative
            # power of a base with no inverse.
            with _lane(lane), pytest.raises(type(error)):
                group.power(base, exponent)
            return
        with _lane(lane), mock.patch("repro.crypto.group.pow", create=True,
                                     wraps=pow) as builtin:
            assert group.power(base, exponent) == expected
        # The compiled window, exactly: integers, 0 <= exponent < 2**512.
        compiled = (lane == "compiled" and type(base) is int
                    and type(exponent) is int and 0 <= exponent < 2 ** 512)
        assert builtin.called is not compiled


class TestKernelModulusGuards:
    """The compiled group arithmetic refuses a modulus Montgomery
    reduction cannot use, even though ``SchnorrGroup`` never passes
    one: -1 with the output untouched, and -2 from ``jacobi`` for an
    even ``n``."""

    #: 0, 1, 2 and an even 512-bit value, 64 bytes little-endian.
    BAD_MODULI = [m.to_bytes(64, "little")
                  for m in (0, 1, 2, 2 ** 511 + 2 ** 100)]

    @pytest.fixture
    def kernel(self):
        kernel = _walk_kernel.load_kernel()
        if kernel is None:
            pytest.skip("no compiled kernel on this host")
        return kernel

    @pytest.mark.parametrize("modulus", BAD_MODULI)
    def test_modexp_and_comb_refuse_a_bad_modulus(self, kernel, modulus):
        operand = (3).to_bytes(64, "little")
        out = ctypes.create_string_buffer(b"\xa5" * 64, 64)
        assert kernel.modexp(out, operand, operand, modulus) == -1
        assert out.raw == b"\xa5" * 64
        table = (ctypes.c_uint64 * (256 * 8))(*([7] * (256 * 8)))
        assert kernel.fixed_base_table(table, operand, 1, modulus) == -1
        assert list(table) == [7] * (256 * 8)
        assert kernel.fixed_base(out, table, b"\x03", 1, modulus) == -1
        assert out.raw == b"\xa5" * 64

    def test_jacobi_refuses_an_even_n(self, kernel):
        for n in (0, 2, 2 ** 511 + 2 ** 100):
            assert kernel.jacobi((3).to_bytes(64, "little"),
                                 n.to_bytes(64, "little")) == -2


class TestShareField:
    def test_inverse(self):
        a = 123456789
        assert a * ShareField.inv(a) % ShareField.prime == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ShareField.inv(0)

    @given(st.integers(min_value=-2 ** 260, max_value=2 ** 260))
    @settings(max_examples=200, deadline=None)
    def test_inverse_matches_fermat(self, a):
        """Extended Euclid gives Fermat's ``a^(prime - 2)``, and zero
        (modulo the prime) still has no inverse."""
        prime = ShareField.prime
        for x in (a, a * prime, prime - a):
            if x % prime == 0:
                with pytest.raises(ZeroDivisionError):
                    ShareField.inv(x)
            else:
                assert ShareField.inv(x) == pow(x, prime - 2, prime)

    def test_poly_eval(self):
        # 3 + 2x + x^2 at x=2 -> 11
        assert ShareField.eval_poly([3, 2, 1], 2) == 11

    def test_lagrange_recovers_constant(self):
        coeffs = [42, 7, 13]  # degree-2 polynomial, secret 42
        points = [(x, ShareField.eval_poly(coeffs, x)) for x in (1, 2, 3)]
        assert ShareField.lagrange_at_zero(points) == 42

    def test_lagrange_insufficient_points_wrong(self):
        coeffs = [42, 7, 13]
        points = [(x, ShareField.eval_poly(coeffs, x)) for x in (1, 2)]
        assert ShareField.lagrange_at_zero(points) != 42


class TestSignatures:
    def test_sign_verify(self):
        sk, vk = generate_keypair(random.Random(5))
        sig = sk.sign(b"message")
        assert vk.verify(b"message", sig)

    def test_wrong_message_fails(self):
        sk, vk = generate_keypair(random.Random(5))
        sig = sk.sign(b"message")
        assert not vk.verify(b"other", sig)

    def test_wrong_key_fails(self):
        sk, _ = generate_keypair(random.Random(5))
        _, other_vk = generate_keypair(random.Random(6))
        assert not other_vk.verify(b"m", sk.sign(b"m"))

    def test_out_of_range_signature_rejected(self):
        _, vk = generate_keypair(random.Random(5))
        assert not vk.verify(b"m", (SCHNORR_GROUP.q, 1))
        assert not vk.verify(b"m", (1, SCHNORR_GROUP.q))

    def test_verify_matches_fermat_inverse_reference(self):
        """``pow(ye, -1, p)`` gives the booleans the Fermat inverse
        ``pow(ye, p - 2, p)`` gave, and a ``y = 0 (mod p)`` key (no
        inverse) verifies nothing instead of raising."""
        group = SCHNORR_GROUP

        def fermat_verify(y, message, signature):
            e, s = signature
            if not (0 <= e < group.q and 0 <= s < group.q):
                return False
            ye = pow(y, e, group.p)
            r = (pow(group.g, s, group.p)
                 * pow(ye, group.p - 2, group.p) % group.p)
            return group.hash_to_scalar(group.element_bytes(r),
                                        message) == e

        sk, vk = generate_keypair(random.Random(5))
        e, s = sk.sign(b"message")
        cases = [
            (vk.y, b"message", (e, s), True),
            (vk.y, b"other", (e, s), False),
            (vk.y, b"message", ((e + 1) % group.q, s), False),
            (vk.y, b"message", (e, (s + 1) % group.q), False),
            (vk.y, b"message", (0, s), False),
            (vk.y, b"message", (group.q, s), False),
            (vk.y, b"message", (e, -1), False),
            (0, b"message", (e, s), False),
            (0, b"message", (0, s), False),
            (group.p, b"message", (e, s), False),
        ]
        for y, message, signature, expected in cases:
            got = VerifyKey(y).verify(message, signature)
            assert got is expected
            assert got == fermat_verify(y, message, signature)
        # The one place the booleans differ, on purpose: with y = 0 the
        # Fermat form computed r = 0 and so accepted e = H(0 || m) with
        # any s; a key with no inverse now verifies nothing.
        forged = (group.hash_to_scalar(group.element_bytes(0), b"m"), 1)
        assert fermat_verify(0, b"m", forged)
        assert not VerifyKey(0).verify(b"m", forged)

    @given(st.integers(min_value=0, max_value=2 ** 64))
    @settings(max_examples=20, deadline=None)
    def test_verify_matches_two_step_inverse_reference(self, seed):
        """``r = g^s * y^(p - 1 - e)`` (one ``power``) gives the booleans
        of ``power(y, e)`` followed by ``pow(ye, -1, p)``, on members,
        the residues of a member, non-members and ``y = 0 (mod p)``,
        for valid, tampered and ``e = 0`` signatures."""
        group = SCHNORR_GROUP
        p = group.p

        def two_step_verify(y, message, signature):
            e, s = signature
            if not (0 <= e < group.q and 0 <= s < group.q):
                return False
            ye = pow(y, e, p)
            if ye == 0:
                return False
            r = pow(group.g, s, p) * pow(ye, -1, p) % p
            return group.hash_to_scalar(group.element_bytes(r),
                                        message) == e

        rng = random.Random(seed)
        sk, vk = generate_keypair(rng)
        e, s = sk.sign(b"message")
        y = vk.y
        non_member = p - group.generate(group.random_scalar(rng))
        signatures = [(e, s), (e, (s + 1) % group.q), (0, s)]
        accepted = 0
        for key in (y, 0, p, y + p, p - y, -y, non_member):
            for signature in signatures:
                got = VerifyKey(key).verify(b"message", signature)
                assert got is two_step_verify(key, b"message", signature)
                accepted += got
        # Only the untampered signature, under y and y + p, and under
        # p - y and -y too when e is even: (-y)^e = y^e.
        assert accepted == (4 if e % 2 == 0 else 2)

    def test_certificate_chain(self):
        home_sk, home_vk = generate_keypair(random.Random(1))
        sat_sk, sat_vk = generate_keypair(random.Random(2))
        cert = issue_certificate("home", home_sk, "sat-1", sat_vk)
        assert cert.verify(home_vk)
        assert cert.subject == "sat-1"

    def test_forged_certificate_fails(self):
        home_sk, home_vk = generate_keypair(random.Random(1))
        mallory_sk, mallory_vk = generate_keypair(random.Random(3))
        fake = issue_certificate("home", mallory_sk, "sat-1", mallory_vk)
        assert not fake.verify(home_vk)

    def test_certificate_subject_tamper_detected(self):
        home_sk, home_vk = generate_keypair(random.Random(1))
        sat_sk, sat_vk = generate_keypair(random.Random(2))
        cert = issue_certificate("home", home_sk, "sat-1", sat_vk)
        tampered = dataclasses.replace(cert, subject="sat-666")
        assert not tampered.verify(home_vk)


@pytest.fixture()
def pki():
    home_sk, home_vk = generate_keypair(random.Random(10))
    sat_sk, sat_vk = generate_keypair(random.Random(11))
    cert = issue_certificate("home", home_sk, "sat-7", sat_vk)
    return home_sk, home_vk, sat_sk, cert


class TestStationToStation:
    def test_both_sides_agree(self, pki):
        _, home_vk, sat_sk, cert = pki
        ue_session, sat_session = agree(home_vk, cert, sat_sk,
                                        rng=random.Random(0))
        assert ue_session.key == sat_session.key
        assert len(ue_session.key) == 32

    def test_fresh_key_every_session(self, pki):
        """Appendix B: K is refreshed per session establishment."""
        _, home_vk, sat_sk, cert = pki
        k1, _ = agree(home_vk, cert, sat_sk)
        k2, _ = agree(home_vk, cert, sat_sk)
        assert k1.key != k2.key

    def test_uncertified_satellite_rejected(self, pki):
        home_sk, home_vk, _, _ = pki
        rogue_sk, rogue_vk = generate_keypair(random.Random(13))
        rogue_cert = issue_certificate("rogue-home", rogue_sk, "sat-evil",
                                       rogue_vk)
        with pytest.raises(KeyAgreementError):
            agree(home_vk, rogue_cert, rogue_sk)

    def test_mitm_substituted_exponential_rejected(self, pki):
        """Appendix B: STS resists man-in-the-middle relays."""
        _, home_vk, sat_sk, cert = pki
        ue = Initiator(home_vk)
        sat = Responder(cert, sat_sk)
        reply, _ = sat.respond(ue.hello)
        # Mallory swaps the satellite's exponential for her own.
        mallory = SCHNORR_GROUP.generate(31337)
        forged = ResponderReply(mallory, reply.certificate, reply.signature)
        with pytest.raises(KeyAgreementError):
            ue.finish(forged)

    def test_invalid_initiator_element_rejected(self, pki):
        _, _, sat_sk, cert = pki
        sat = Responder(cert, sat_sk)
        from repro.crypto.sts import InitiatorHello
        with pytest.raises(KeyAgreementError):
            sat.respond(InitiatorHello(0))

    def test_replayed_hello_gets_different_key(self, pki):
        """Replaying X cannot reproduce K: the satellite picks a new y."""
        _, home_vk, sat_sk, cert = pki
        ue = Initiator(home_vk)
        sat = Responder(cert, sat_sk)
        _, s1 = sat.respond(ue.hello)
        _, s2 = sat.respond(ue.hello)
        assert s1.key != s2.key
