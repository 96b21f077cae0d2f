"""User-level performance in satellite mobility (Fig. 21).

What does a satellite pass do to a live TCP transfer and a ping
stream between Beijing and New York?

* SkyCore/Baoyun/DPCM re-allocate the UE's logical IP during the
  mobility registration, which **terminates** TCP connections and
  breaks ping until the application reconnects;
* 5G NTN keeps the IP (anchored at the remote home) but stalls for
  the whole slow home-routed signaling exchange;
* SpaceCore keeps the geospatial address and only pays the short local
  handover -- no termination, minimal stall.

Stalls exceed the raw signaling time because of higher-layer recovery:
TCP sits in exponential-backoff retransmission (RTO) and resumes only
at the first retransmission after connectivity returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..baselines.base import Solution
from ..baselines.solutions import ALL_SOLUTIONS
from ..fiveg.messages import ProcedureKind
from .prototype import solution_latency_s

#: TCP's initial retransmission timeout (s).
TCP_INITIAL_RTO_S = 0.2

#: Ping probing interval (s).
PING_INTERVAL_S = 0.1

#: Time to rebuild a torn-down connection: new session establishment
#: plus transport handshake, from the application's point of view.
RECONNECT_OVERHEAD_S = 1.5


def tcp_recovery_time_s(outage_s: float,
                        initial_rto_s: float = TCP_INITIAL_RTO_S) -> float:
    """Stall from outage start to the first successful retransmission.

    Retransmissions fire at exponentially backed-off instants (0.2,
    0.6, 1.4, 3.0, ... seconds after the loss); the transfer resumes at
    the first instant past the outage end.
    """
    if outage_s < 0:
        raise ValueError("outage cannot be negative")
    fire_at = 0.0
    rto = initial_rto_s
    while True:
        fire_at += rto
        if fire_at >= outage_s:
            return fire_at
        rto = min(rto * 2.0, 60.0)


@dataclass(frozen=True)
class StallResult:
    """Per-solution user-level outcome of one satellite pass."""

    solution: str
    connection_reset: bool
    outage_s: float
    tcp_stall_s: float
    ping_stall_s: float


def satellite_pass_impact(solution: Solution,
                          rate_per_s: int = 100) -> StallResult:
    """Fig. 21a for one solution.

    The outage window is the mobility signaling the solution runs on a
    pass: the mobility registration (logical designs) or the local
    handover (SpaceCore).
    """
    if solution.mobility_registration_per_pass:
        kind = ProcedureKind.MOBILITY_REGISTRATION
    else:
        kind = ProcedureKind.HANDOVER
    outage, _ = solution_latency_s(solution, kind, rate_per_s)
    if solution.name != "SpaceCore":
        # Legacy designs re-establish the data session on the new
        # satellite after the pass (the Fig. 21c trace: handover, then
        # session est. request, then recovery).  SpaceCore's replica
        # piggyback *is* the session install, so nothing is added.
        session_est, _ = solution_latency_s(
            solution, ProcedureKind.SESSION_ESTABLISHMENT, rate_per_s)
        outage += session_est
    reset = not solution.ip_stable_under_satellite_mobility
    if reset:
        # The transport connection dies with the address; the stall is
        # the outage plus a full application-level reconnect.
        tcp = outage + RECONNECT_OVERHEAD_S
        ping = outage + RECONNECT_OVERHEAD_S
    else:
        tcp = tcp_recovery_time_s(outage)
        ping = outage + PING_INTERVAL_S
    return StallResult(solution.name, reset, outage, tcp, ping)


def fig21_comparison(rate_per_s: int = 100) -> List[StallResult]:
    """All five solutions' user-level stalls (Fig. 21a)."""
    return [satellite_pass_impact(factory(), rate_per_s)
            for factory in ALL_SOLUTIONS]
