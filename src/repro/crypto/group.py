"""Algebraic substrate: a Schnorr group and a prime field.

All public-key machinery in SpaceCore (Algorithm 2's Diffie-Hellman,
the home's state signatures, the ABE secret sharing) runs over two
deterministic structures:

* ``SCHNORR_GROUP``: a 512-bit safe-prime group (p = 2q + 1) with a
  generator of prime order q.  512 bits keeps the group arithmetic
  fast enough for the latency micro-benchmarks, compiled or not, while
  preserving the real protocol structure.  The constants were produced
  once by a seeded Miller-Rabin search (seed 20220822, the paper's
  conference date) and are fixed here.
* ``ShareField``: the prime field over the Mersenne prime
  ``SHARE_PRIME`` = 2^127 - 1, used for Shamir secret sharing in the
  ABE scheme.

This is a *reproduction-grade* parameterisation: the algebra and the
protocol flows are real, the key sizes are scaled for simulation.

The three group operations run compiled, in the C source
:mod:`repro.topology._walk_kernel` builds beside the walk kernel
(fixed-width Montgomery arithmetic over 8 x 64-bit limbs, for a
modulus of at most 512 bits), on a host that has the object; on one
without it (no compiler, a failed build, ``REPRO_NO_CKERNEL=1``) and
for every input outside the compiled window they run the Python forms
below, so both lanes give the same values and raise the same errors.
The kernel is not constant-time: fine for a simulator, wrong for real
keys.  Per call on a 2-core x86-64 host, compiled vs Python:

* ``power`` is ``modexp`` (a fixed 5-bit window) for integer inputs
  with ``0 <= exponent < 2**512``, the base reduced ``% p`` first,
  else builtin ``pow``: ~0.1 ms against ~0.6 ms.  ``power == pow``
  for every input, errors included.
* ``generate`` is a fixed-base comb: the base ``g`` is the same for
  every signature, key pair, STS share and SUCI ephemeral, so ``g^x``
  is a product of one precomputed entry per non-zero byte of
  ``x mod q`` instead of a square-and-multiply ladder.  The compiled
  lane (``int`` exponents) multiplies Montgomery-form entries of a
  1 MiB table built in C once per group and process; the Python lane
  multiplies rows of Python ints: ~0.015 ms against ~0.11 ms.
* ``is_element`` is the Legendre symbol: for ``p = 2q + 1`` (enforced
  at construction) ``x^q = 1`` iff ``(x|p) = 1``.  A binary Jacobi
  symbol in C for ``int`` inputs with ``0 < x < p``, else a Python
  Jacobi loop: ~0.013 ms against ~0.085 ms, and ~0.7 ms for
  ``pow(x, q, p)``.  The checks are on distinct ephemerals, so there
  is nothing to memoise.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import secrets
from dataclasses import dataclass

#: The compiled ``modexp`` takes 64-byte operands, so ``power`` hands it
#: exponents and moduli below ``2**512``.
_MODEXP_BYTES = 64
_MODEXP_LIMIT = 1 << 8 * _MODEXP_BYTES

#: 512-bit safe prime p = 2q + 1.
_P = int(
    "0x8388e403a7ff7aa89fb163fb9197d703770381138e3e00acc26922bb0636cc5b"
    "2231676e54ee6e18a118b26ee875b9dcd37382fdf22d336c9c80185fb6af9cd3", 16)
#: The 511-bit prime group order q = (p - 1) / 2.
_Q = int(
    "0x41c47201d3ffbd544fd8b1fdc8cbeb81bb81c089c71f00566134915d831b662d"
    "9118b3b72a77370c508c5937743adcee69b9c17ef91699b64e400c2fdb57ce69", 16)
_G = 4


@dataclass(frozen=True)
class SchnorrGroup:
    """A multiplicative group of prime order q inside Z_p^*."""

    p: int
    q: int
    g: int

    def __post_init__(self) -> None:
        # What is_element's Legendre shortcut rests on, given p prime.
        if self.p != 2 * self.q + 1:
            raise ValueError("SchnorrGroup needs a safe prime p = 2q + 1")
        if not 1 < self.g < self.p or pow(self.g, self.q, self.p) != 1:
            raise ValueError("g must generate the order-q subgroup")

    def random_scalar(self, rng=None) -> int:
        """A uniform nonzero exponent modulo q."""
        if rng is not None:
            return rng.randrange(1, self.q)
        return secrets.randbelow(self.q - 1) + 1

    def power(self, base: int, exponent: int) -> int:
        """``base ** exponent mod p``, exactly as builtin ``pow``.

        Compiled for integer inputs with ``0 <= exponent < 2**512``
        (module docstring), with no reduction modulo ``q``: the base
        may lie outside the subgroup.
        """
        p = self.p
        if (type(base) is int and type(exponent) is int
                and 0 <= exponent < _MODEXP_LIMIT and p < _MODEXP_LIMIT):
            kernel = _load_kernel()
            if kernel is not None:
                width = _MODEXP_BYTES
                out = ctypes.create_string_buffer(width)
                if kernel.modexp(out, (base % p).to_bytes(width, "little"),
                                 exponent.to_bytes(width, "little"),
                                 p.to_bytes(width, "little")) == 0:
                    return int.from_bytes(out.raw, "little")
        return pow(base, exponent, p)

    def generate(self, exponent: int) -> int:
        """g^exponent mod p, for any integer exponent.

        ``g`` has order ``q``, so the exponent is reduced modulo ``q``
        first and the result is the product of one table entry per
        non-zero byte of it: compiled for ``int`` exponents (module
        docstring), else a Python row product.
        """
        p = self.p
        kernel = (_load_kernel() if type(exponent) is int
                  and p < _MODEXP_LIMIT else None)
        table = _fixed_base_table(self, kernel)
        digits = (exponent % self.q).to_bytes(_rows(self), "little")
        if type(table) is not tuple:
            # The comb was built, so the modulus is one fixed_base takes.
            width = _MODEXP_BYTES
            out = ctypes.create_string_buffer(width)
            kernel.fixed_base(out, table, digits, len(digits),
                              p.to_bytes(width, "little"))
            return int.from_bytes(out.raw, "little")
        acc = 1
        for row, digit in zip(table, digits):
            acc = acc * row[digit] % p
        return acc

    def is_element(self, x: int) -> bool:
        """Membership test for the order-q subgroup: ``(x|p) = 1``."""
        n = self.p
        if not 0 < x < n:
            return False
        if type(x) is int and n < _MODEXP_LIMIT:
            kernel = _load_kernel()
            if kernel is not None:
                width = _MODEXP_BYTES
                return kernel.jacobi(x.to_bytes(width, "little"),
                                     n.to_bytes(width, "little")) == 1
        positive = True
        while x:
            twos = (x & -x).bit_length() - 1
            x >>= twos
            if twos & 1 and n & 7 in (3, 5):
                positive = not positive
            if x & n & 3 == 3:
                positive = not positive
            x, n = n % x, x
        return positive and n == 1

    def hash_to_scalar(self, *parts: bytes) -> int:
        """Hash arbitrary byte strings into an exponent (Fiat-Shamir)."""
        digest = hashlib.sha512()
        for part in parts:
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
        return int.from_bytes(digest.digest(), "big") % self.q

    def element_bytes(self, x: int) -> bytes:
        """Fixed-width big-endian encoding of a group element."""
        return x.to_bytes((self.p.bit_length() + 7) // 8, "big")


def _load_kernel():
    """The compiled object, or ``None`` for the Python forms.

    Imported at call time: the kernel module's package pulls numpy and
    networkx, which ``import repro.crypto`` does not need.
    """
    from repro.topology._walk_kernel import load_kernel
    return load_kernel()


def _rows(group: SchnorrGroup) -> int:
    """Bytes of ``q``: one comb row per byte of a reduced exponent."""
    return (group.q.bit_length() + 7) // 8


@functools.lru_cache(maxsize=8)
def _fixed_base_table(group: SchnorrGroup, kernel):
    """The comb ``rows[i][d] = g^(d * 256^i) mod p``, one row per byte
    of ``q``: built in C in Montgomery form into one buffer when
    ``kernel`` is the compiled object, else a tuple of Python rows.

    A module-level memo rather than a field on the (frozen) group, so
    the table never rides along when keys carrying their group are
    pickled into pool workers.
    """
    rows = _rows(group)
    p, base = group.p, group.g
    if kernel is not None:
        width = _MODEXP_BYTES
        table = ctypes.create_string_buffer(rows * 256 * width)
        if kernel.fixed_base_table(table, base.to_bytes(width, "little"),
                                   rows, p.to_bytes(width, "little")) == 0:
            return table
        return _fixed_base_table(group, None)
    table = []
    for _ in range(rows):
        row = [1]
        for _ in range(255):
            row.append(row[-1] * base % p)
        table.append(tuple(row))
        base = row[-1] * base % p
    return tuple(table)


SCHNORR_GROUP = SchnorrGroup(p=_P, q=_Q, g=_G)


def is_probable_prime(n: int, rounds: int = 40,
                      rng=None) -> bool:
    """Miller-Rabin primality test (deterministic enough at 40 rounds).

    Used by the test suite to verify the hard-coded group constants;
    exposed because downstream users regenerating parameters need it.
    """
    import random as _random
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    rng = rng or _random.Random(0xC0FFEE)
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True

#: Mersenne prime 2^127 - 1: the Shamir share field for ABE.  A 127-bit
#: field keeps Lagrange interpolation in the tens of microseconds --
#: the Fig. 18a regime -- while preserving the scheme's structure.
SHARE_PRIME = (1 << 127) - 1


class ShareField:
    """Arithmetic helpers over F_(2^127 - 1)."""

    prime = SHARE_PRIME

    @classmethod
    def random(cls, rng=None) -> int:
        if rng is not None:
            return rng.randrange(cls.prime)
        return secrets.randbelow(cls.prime)

    @classmethod
    def add(cls, a: int, b: int) -> int:
        return (a + b) % cls.prime

    @classmethod
    def inv(cls, a: int) -> int:
        if a % cls.prime == 0:
            raise ZeroDivisionError("no inverse of zero")
        return pow(a, -1, cls.prime)

    @classmethod
    def eval_poly(cls, coefficients, x: int) -> int:
        """Horner evaluation of a polynomial with ``coefficients[0]``
        the constant term."""
        acc = 0
        for coeff in reversed(coefficients):
            acc = (acc * x + coeff) % cls.prime
        return acc

    @classmethod
    def lagrange_at_zero(cls, points) -> int:
        """Interpolate ``points = [(x, y), ...]`` and evaluate at 0."""
        total = 0
        for i, (xi, yi) in enumerate(points):
            num, den = 1, 1
            for j, (xj, _) in enumerate(points):
                if i == j:
                    continue
                num = num * (-xj) % cls.prime
                den = den * (xi - xj) % cls.prime
            total = (total + yi * num * cls.inv(den)) % cls.prime
        return total
