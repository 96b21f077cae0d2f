"""UDSF: the infrastructure-side unstructured data storage function.

Footnote 3 of the paper: "5G also has an infrastructure-side state
repository (UDSF [91, 92]), which is slow [93] and suffers from issues
in S3 in satellites."  We implement it as the natural alternative to
device-as-the-repository so the report's design claims can compare
the two: a UDSF lookup from a satellite costs a network round trip to
wherever the UDSF lives (the remote home, or a peer satellite), plus a
store-access latency measured for stateless 5G NFs by [93].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Store access latency (s) for an external state repository; [93]
#: measures hundreds of microseconds to milliseconds per operation for
#: stateless NF state externalisation.
UDSF_ACCESS_LATENCY_S = 0.002


@dataclass
class UdsfRecord:
    """One stored state blob with optimistic-concurrency versioning."""

    key: str
    blob: bytes
    version: int = 1


class Udsf:
    """A key-value state store with version checks.

    ``location_rtt_s`` is the round trip between a client NF and this
    store; for a ground-hosted UDSF serving satellites this is the
    multi-hop ISL + gateway path that makes the design slow in space.
    """

    def __init__(self, name: str, location_rtt_s: float = 0.0):
        self.name = name
        self.location_rtt_s = location_rtt_s
        self._records: Dict[str, UdsfRecord] = {}
        self.reads = 0
        self.writes = 0
        self.conflicts = 0

    # -- operations -----------------------------------------------------------

    def put(self, key: str, blob: bytes,
            expected_version: Optional[int] = None) -> UdsfRecord:
        """Store a blob; optimistic concurrency via expected_version."""
        self.writes += 1
        existing = self._records.get(key)
        if existing is None:
            record = UdsfRecord(key, blob)
        else:
            if (expected_version is not None
                    and existing.version != expected_version):
                self.conflicts += 1
                raise ConflictError(
                    f"{key}: expected v{expected_version}, "
                    f"store has v{existing.version}")
            record = UdsfRecord(key, blob, existing.version + 1)
        self._records[key] = record
        return record

    def get(self, key: str) -> Optional[UdsfRecord]:
        """Fetch a record by key; None when absent."""
        self.reads += 1
        return self._records.get(key)

    def delete(self, key: str) -> bool:
        """Remove a record; True when something was deleted."""
        self.writes += 1
        return self._records.pop(key, None) is not None

    @property
    def record_count(self) -> int:
        return len(self._records)

    # -- latency accounting ------------------------------------------------------

    def read_latency_s(self) -> float:
        """Wall-clock cost of one state retrieval from a client NF."""
        return self.location_rtt_s + UDSF_ACCESS_LATENCY_S


class ConflictError(Exception):
    """Optimistic-concurrency conflict on a UDSF write."""


def compare_state_retrieval(udsf_rtt_s: float,
                            local_crypto_s: float) -> Tuple[float, float]:
    """(UDSF retrieval, device-replica retrieval) latencies in seconds.

    The footnote-3 comparison: fetching a session state from a remote
    UDSF costs its RTT plus store access; SpaceCore's device replica
    costs only the local decryption/verification (the radio leg is
    already part of the session setup either way).
    """
    udsf = udsf_rtt_s + UDSF_ACCESS_LATENCY_S
    device = local_crypto_s
    return udsf, device
