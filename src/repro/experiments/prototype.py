"""Prototype comparison: latency and satellite CPU per solution (Fig. 17).

Reproduces the S6.1 testbed study: five solutions, three procedures
(initial registration, session establishment, mobility registration by
LEO mobility), swept over procedure rates, on satellite hardware 1
(Raspberry Pi 4) with the home a multi-hop LEO path away.

Latency composes three M/M/1-style stages:

* satellite-side processing of the messages whose destination NF runs
  on board (slow hardware, the Baoyun/SkyCore bottleneck);
* home-side processing of the remaining messages (fast hardware);
* propagation for every boundary-crossing message (the 5G NTN tax);
* plus SpaceCore's fixed local-crypto overhead (Fig. 18a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..baselines.base import Solution
from ..baselines.solutions import ALL_SOLUTIONS
from ..fiveg.messages import ProcedureKind, Role
from ..hardware.model import (
    HardwarePlatform,
    RASPBERRY_PI_4,
    XEON_WORKSTATION,
    cpu_breakdown,
)
from ..hardware.queueing import SATURATED_LATENCY_S, mm1_wait_s

#: Fig. 17's x-axis.
FIG17_RATES: Tuple[int, ...] = (100, 200, 300, 400, 500)

#: Round trip between a serving satellite and the terrestrial home
#: over the ISL path + gateway (~10 hops each way).
GROUND_RTT_S = 0.120

_ALL_ROLES = frozenset(Role) - {Role.UE}


@dataclass(frozen=True)
class PrototypePoint:
    """One (solution, procedure, rate) sample of Fig. 17."""

    solution: str
    procedure: ProcedureKind
    rate_per_s: int
    latency_s: float
    satellite_cpu_percent: float
    saturated: bool


#: Procedures that run concurrently on the prototype satellite: while
#: session establishments are measured, registrations and (for logical
#: designs) mobility registrations keep arriving at the same rate.
_CONCURRENT = (ProcedureKind.INITIAL_REGISTRATION,
               ProcedureKind.SESSION_ESTABLISHMENT,
               ProcedureKind.MOBILITY_REGISTRATION)


def _stage_latency(platform: HardwarePlatform, solution: Solution,
                   kind: ProcedureKind, rate_per_s: float,
                   roles: frozenset) -> Tuple[float, bool]:
    """Service + queueing of one processing stage under the full
    concurrent workload (all three procedures at ``rate_per_s``)."""
    measured = [m for m in solution.flow(kind) if m.dst in roles]
    if not measured:
        return 0.0, False
    efficiency = solution.processing_efficiency
    background_msgs = sum(
        1 for other in _CONCURRENT
        for m in solution.flow(other) if m.dst in roles)
    total_service = sum(
        platform.procedure_cost_s(solution.flow(other), roles)
        for other in _CONCURRENT) * efficiency
    per_message = total_service / background_msgs
    arrival = rate_per_s * background_msgs
    wait, saturated = mm1_wait_s(arrival, per_message, platform.cores)
    service = platform.procedure_cost_s(measured, roles) * efficiency
    if saturated:
        return service + SATURATED_LATENCY_S, True
    return service + wait * len(measured), False


def solution_latency_s(solution: Solution, kind: ProcedureKind,
                       rate_per_s: float,
                       satellite: HardwarePlatform = RASPBERRY_PI_4,
                       home: HardwarePlatform = XEON_WORKSTATION,
                       ground_rtt_s: float = GROUND_RTT_S) -> Tuple[
                           float, bool]:
    """End-to-end signaling latency for one procedure; (s, saturated).

    A solution with no flow for the procedure (SpaceCore's eliminated
    C4) reports zero.  The satellite stage is loaded by the *combined*
    concurrent workload -- this is why Baoyun/DPCM registrations crawl
    (their on-board AMFs also absorb the per-pass mobility storm)
    while 5G NTN merely pays propagation.
    """
    flow = solution.flow(kind)
    if not flow:
        return 0.0, False
    sat_latency, sat_saturated = _stage_latency(
        satellite, solution, kind, rate_per_s, solution.on_board)
    ground_roles = _ALL_ROLES - solution.on_board
    home_latency, home_saturated = _stage_latency(
        home, solution, kind, rate_per_s, ground_roles)
    crossings = sum(1 for m in flow if solution.crosses_boundary(m))
    propagation = crossings * ground_rtt_s / 2.0
    total = (sat_latency + home_latency + propagation
             + solution.crypto_overhead_s)
    return total, sat_saturated or home_saturated


def solution_cpu_percent(solution: Solution, kind: ProcedureKind,
                         rate_per_s: float,
                         satellite: HardwarePlatform = RASPBERRY_PI_4
                         ) -> float:
    """Satellite CPU utilisation for one procedure at one rate."""
    flow = solution.flow(kind)
    if not flow:
        return 0.0
    raw = cpu_breakdown(satellite, rate_per_s, flow,
                        solution.on_board).total_percent
    return min(100.0, raw * solution.processing_efficiency)


def fig17_sweep(rates: Sequence[int] = FIG17_RATES,
                satellite: HardwarePlatform = RASPBERRY_PI_4
                ) -> List[PrototypePoint]:
    """The full Fig. 17 grid: 5 solutions x 3 procedures x rates."""
    procedures = (ProcedureKind.INITIAL_REGISTRATION,
                  ProcedureKind.SESSION_ESTABLISHMENT,
                  ProcedureKind.MOBILITY_REGISTRATION)
    points: List[PrototypePoint] = []
    for factory in ALL_SOLUTIONS:
        solution = factory()
        for kind in procedures:
            for rate in rates:
                latency, saturated = solution_latency_s(
                    solution, kind, rate, satellite)
                cpu = solution_cpu_percent(solution, kind, rate,
                                           satellite)
                points.append(PrototypePoint(
                    solution.name, kind, rate, latency, cpu, saturated))
    return points
