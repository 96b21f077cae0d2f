"""Tests for the group parameters and the Fig. 11 churn experiment."""

import random

from repro.crypto.group import SCHNORR_GROUP, SHARE_PRIME
from repro.experiments import (
    fig11_comparison,
    geospatial_area_churn,
    logical_area_churn,
)
from repro.orbits import iridium, starlink


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin over 40 seeded witnesses: the oracle that proves
    the committed group constants prime."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    rng = random.Random(0xC0FFEE)
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(40):
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


class TestGroupParameters:
    def test_p_is_prime(self):
        assert is_probable_prime(SCHNORR_GROUP.p)

    def test_q_is_prime(self):
        assert is_probable_prime(SCHNORR_GROUP.q)

    def test_safe_prime_structure(self):
        assert SCHNORR_GROUP.p == 2 * SCHNORR_GROUP.q + 1

    def test_share_prime_is_mersenne_127(self):
        assert SHARE_PRIME == (1 << 127) - 1
        assert is_probable_prime(SHARE_PRIME)

    def test_miller_rabin_rejects_composites(self):
        assert not is_probable_prime(SCHNORR_GROUP.p + 2)  # even
        assert not is_probable_prime(561)   # Carmichael number
        assert not is_probable_prime(1)
        assert is_probable_prime(2)
        assert is_probable_prime(97)


class TestMovingAreas:
    def test_logical_areas_churn_fast(self):
        """Fig. 11: satellite-bound areas sweep past static users."""
        churn = logical_area_churn(starlink(), 39.9, 116.4,
                                   duration_s=1200.0)
        assert churn.distinct_areas >= 3
        assert churn.changes_per_hour > 10

    def test_geospatial_areas_never_move(self):
        churn = geospatial_area_churn(starlink(), 39.9, 116.4,
                                      duration_s=1200.0)
        assert churn.distinct_areas == 1
        assert churn.area_changes == 0
        assert churn.changes_per_hour == 0.0

    def test_comparison_pairs_both_definitions(self):
        rows = fig11_comparison(starlink(), duration_s=900.0)
        definitions = {r.definition for r in rows}
        assert len(definitions) == 2

    def test_sparser_shell_churns_slower(self):
        dense = logical_area_churn(starlink(), 39.9, 116.4,
                                   duration_s=1200.0)
        sparse = logical_area_churn(iridium(), 39.9, 116.4,
                                    duration_s=1200.0)
        assert sparse.changes_per_hour <= dense.changes_per_hour
