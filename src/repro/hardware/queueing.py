"""Signaling-latency queueing model (Fig. 8, Fig. 17).

Procedure latency has three parts:

* **service time**: the CPU cost of processing the procedure's
  messages on the satellite platform;
* **queueing delay**: M/M/1 waiting while the signaling processor is
  loaded -- this is what bends the Fig. 8 curves upward and makes them
  blow up near saturation;
* **propagation**: round trips to the remote home for every message
  that crosses the space-ground boundary (the dominant term for the
  transparent-pipe and radio-only options).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from ..fiveg.messages import MessageTemplate, Role
from .model import HardwarePlatform

#: Queueing delay reported once the arrival rate exceeds capacity;
#: stands in for "the procedure effectively never completes".
SATURATED_LATENCY_S = 30.0


@dataclass(frozen=True)
class LatencyEstimate:
    """Latency decomposition for one procedure at one load point."""

    service_s: float
    queueing_s: float
    propagation_s: float
    saturated: bool

    @property
    def total_s(self) -> float:
        return self.service_s + self.queueing_s + self.propagation_s


def mm1_wait_s(arrival_rate: float, service_time_s: float,
               servers: int = 1) -> Tuple[float, bool]:
    """Mean M/M/1 (or M/M/c-approximated) waiting time.

    Returns ``(wait, saturated)``; the saturated flag replaces the
    divergence at rho >= 1 with :data:`SATURATED_LATENCY_S`.
    """
    if service_time_s <= 0:
        return 0.0, False
    capacity = servers / service_time_s
    rho = arrival_rate / capacity
    if rho >= 1.0:
        return SATURATED_LATENCY_S, True
    # M/M/1 waiting time scaled by utilisation; with c servers we use
    # the standard single-queue approximation W = rho/(capacity-lambda).
    wait = rho / (capacity - arrival_rate)
    return wait, False


def procedure_latency(platform: HardwarePlatform, rate_per_s: float,
                      flow: Iterable[MessageTemplate],
                      on_board: Iterable[Role],
                      ground_rtt_s: float = 0.0) -> LatencyEstimate:
    """End-to-end signaling latency of one procedure under load.

    ``ground_rtt_s`` is charged once per message whose source and
    destination straddle the space-ground boundary (one one-way trip
    each, so two boundary messages make a round trip).
    """
    flow = list(flow)
    on_board_set = set(on_board)
    service = platform.procedure_cost_s(flow, on_board_set)
    # Arrival rate in *messages* per second at the on-board processor.
    msgs_on_board = sum(1 for m in flow if m.dst in on_board_set)
    per_message = (service / msgs_on_board) if msgs_on_board else 0.0
    message_rate = rate_per_s * msgs_on_board
    wait_per_msg, saturated = mm1_wait_s(message_rate, per_message,
                                         platform.cores)
    queueing = (wait_per_msg * msgs_on_board if not saturated
                else SATURATED_LATENCY_S)
    boundary_msgs = sum(
        1 for m in flow
        if _is_space(m.src, on_board_set) != _is_space(m.dst, on_board_set)
        and Role.UE not in (m.src, m.dst))
    propagation = boundary_msgs * (ground_rtt_s / 2.0)
    return LatencyEstimate(service, queueing, propagation, saturated)


def _is_space(role: Role, on_board: set) -> bool:
    """Whether a role lives on the satellite side of the boundary."""
    if role is Role.UE:
        return True  # the UE talks to the satellite over the radio leg
    return role in on_board
