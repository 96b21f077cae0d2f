"""UDSF: the infrastructure-side unstructured data storage function.

Footnote 3 of the paper: "5G also has an infrastructure-side state
repository (UDSF [91, 92]), which is slow [93] and suffers from issues
in S3 in satellites."  The report's design claims compare it with
device-as-the-repository: a UDSF lookup from a satellite costs a
network round trip to wherever the UDSF lives (the remote home, or a
peer satellite), plus a store-access latency measured for stateless 5G
NFs by [93].
"""

from __future__ import annotations

from typing import Tuple

#: Store access latency (s) for an external state repository; [93]
#: measures hundreds of microseconds to milliseconds per operation for
#: stateless NF state externalisation.
UDSF_ACCESS_LATENCY_S = 0.002


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
