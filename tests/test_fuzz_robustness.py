"""Fuzz/robustness tests: malformed inputs must fail cleanly.

The replica format faces the network, so it must never crash on
garbage -- it raises a typed error instead.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fiveg import StateReplica


class TestReplicaFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=100)
    def test_random_bytes_rejected(self, data):
        with pytest.raises((ValueError, KeyError, json.JSONDecodeError,
                            UnicodeDecodeError, TypeError)):
            StateReplica.from_bytes(data)

    def test_truncated_real_replica_rejected(self):
        from repro.core import SpaceCoreHome
        home = SpaceCoreHome()
        ue = home.provision_subscriber(1)
        home.register(ue, (0, 0), (0, 0))
        wire = ue.replica.to_bytes()
        with pytest.raises((ValueError, json.JSONDecodeError)):
            StateReplica.from_bytes(wire[: len(wire) // 2])


class TestReplicaWireFormat:
    def test_replica_roundtrip(self):
        from repro.core.home import SpaceCoreHome
        home = SpaceCoreHome()
        ue = home.provision_subscriber(7)
        home.register(ue, (1, 1), (1, 1))
        wire = ue.replica.to_bytes()
        recovered = StateReplica.from_bytes(wire)
        assert recovered.version == ue.replica.version
        assert recovered.signature == ue.replica.signature
        assert (recovered.ciphertext.payload
                == ue.replica.ciphertext.payload)
