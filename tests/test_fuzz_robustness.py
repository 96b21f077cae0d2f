"""Fuzz/robustness tests: malformed inputs must fail cleanly.

A satellite parses the state bundle it decrypts from a UE's replica
(``SessionState.from_bytes``), so that parser must never crash on
garbage -- it raises a typed error instead.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fiveg import SessionState


def _real_bundle() -> bytes:
    """The bundle the home delegated to a freshly registered UE."""
    from repro.core import SpaceCoreHome
    from repro.crypto import decrypt
    home = SpaceCoreHome()
    ue = home.provision_subscriber(1)
    home.register(ue, (0, 0), (0, 0), 0.0)
    credentials = home.enroll_satellite("sat-fuzz")
    return decrypt(credentials.abe_key, ue.replica.ciphertext)


class TestBundleFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=100)
    def test_random_bytes_rejected(self, data):
        with pytest.raises((ValueError, KeyError, json.JSONDecodeError,
                            UnicodeDecodeError, TypeError)):
            SessionState.from_bytes(data)

    def test_truncated_real_bundle_rejected(self):
        wire = _real_bundle()
        with pytest.raises((ValueError, json.JSONDecodeError)):
            SessionState.from_bytes(wire[: len(wire) // 2])

    def test_real_bundle_roundtrip(self):
        wire = _real_bundle()
        assert SessionState.from_bytes(wire).to_bytes() == wire
