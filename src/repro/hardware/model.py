"""Satellite hardware CPU cost model (Fig. 7).

The paper prototypes on two platforms:

* **Hardware 1** -- Raspberry Pi 4, as flown on the Baoyun 5G LEO
  satellite [22-24];
* **Hardware 2** -- a Xeon E5-2630 workstation comparable to the HPE
  EL8000 class used by OrbitsEdge [28, 81].

We model per-message processing costs per network function, calibrated
so Hardware 1 saturates around 250 registrations/s with the full
in-orbit function set -- the Fig. 7a saturation point -- and Hardware 2
runs roughly six times faster (open5gs does not scale linearly with
cores).  Crypto-heavy functions (AUSF/UDM) cost more per message than
forwarding-rule updates (UPF).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from ..fiveg.messages import MessageTemplate, Role

#: Relative per-message weight of each NF (dimensionless).
_ROLE_WEIGHTS: Dict[Role, float] = {
    Role.UE: 0.0,          # not satellite CPU
    Role.RAN: 0.8,
    Role.RAN2: 0.8,
    Role.AMF: 1.0,
    Role.SMF: 1.0,
    Role.UPF: 0.7,
    Role.ANCHOR_UPF: 0.7,
    Role.AUSF: 2.0,        # key derivations
    Role.UDM: 1.6,         # database + vector generation
    Role.PCF: 0.9,
}

#: Per-message overhead attributed to "Others" in Fig. 7 (transport,
#: SBI serialisation, logging), as a fraction of the NF cost.
_OTHERS_FRACTION = 0.35

#: Fixed database access cost charged to stateful context lookups.
_DB_WEIGHT = 0.5


@dataclass(frozen=True)
class HardwarePlatform:
    """One satellite compute platform."""

    name: str
    base_cost_us: float   # cost of a weight-1.0 message (microseconds)
    cores: int = 1

    def derated(self, capacity_factor: float) -> "HardwarePlatform":
        """This platform throttled to ``capacity_factor`` of its compute.

        Models onboard degradation (radiation upsets, thermal
        throttling, a failed board): every message costs
        ``1 / capacity_factor`` times as much CPU, so the signaling
        processor saturates at proportionally lower load.  Chaos
        ``COMPUTE_DEGRADE`` events carry the factor; the scenario layer
        feeds it back through here.
        """
        if not 0.0 < capacity_factor <= 1.0:
            raise ValueError("capacity factor must be in (0, 1]")
        if capacity_factor == 1.0:
            return self
        return HardwarePlatform(
            f"{self.name}@{capacity_factor:g}",
            base_cost_us=self.base_cost_us / capacity_factor,
            cores=self.cores)

    def message_cost_s(self, processing_role: Role) -> float:
        """CPU seconds to process one message at the given NF."""
        weight = _ROLE_WEIGHTS.get(processing_role, 1.0)
        return weight * self.base_cost_us * 1e-6

    def procedure_cost_s(self, flow: Iterable[MessageTemplate],
                         on_board: Iterable[Role]) -> float:
        """CPU seconds one procedure instance burns on this platform.

        Each message is charged at its *destination* NF (the processor)
        when that NF runs on board, plus the Others overhead and a DB
        touch for stateful context messages.
        """
        on_board_set = set(on_board)
        total = 0.0
        for message in flow:
            if message.dst in on_board_set:
                cost = self.message_cost_s(message.dst)
                total += cost * (1.0 + _OTHERS_FRACTION)
                if message.carries or message.creates:
                    total += _DB_WEIGHT * self.base_cost_us * 1e-6
        return total


#: Hardware 1: Raspberry Pi 4 (Baoyun).  ~280 us per weight-1 message;
#: open5gs pipelines at most ~2 cores' worth of signaling work, which
#: puts saturation near 250-350 full registrations/s (Fig. 7a).
RASPBERRY_PI_4 = HardwarePlatform("hardware-1-rpi4", base_cost_us=280.0,
                                  cores=2)

#: Hardware 2: Xeon E5-2630 class (OrbitsEdge EL8000 analogue).
XEON_WORKSTATION = HardwarePlatform("hardware-2-xeon", base_cost_us=45.0,
                                    cores=20)

PLATFORMS: Tuple[HardwarePlatform, ...] = (RASPBERRY_PI_4,
                                           XEON_WORKSTATION)


@dataclass
class CpuBreakdown:
    """Per-NF CPU utilisation, the Fig. 7 stacked bars."""

    platform: str
    rate_per_s: float
    by_function: Dict[str, float] = field(default_factory=dict)

    @property
    def total_percent(self) -> float:
        return min(100.0, sum(self.by_function.values()))


def cpu_breakdown(platform: HardwarePlatform, rate_per_s: float,
                  flow: Iterable[MessageTemplate],
                  on_board: Iterable[Role]) -> CpuBreakdown:
    """CPU% per function for ``rate_per_s`` procedures each second.

    Utilisation is normalised to the platform's full core budget.
    """
    on_board_set = set(on_board)
    budget_s = float(platform.cores)
    by_function: Dict[str, float] = {}
    others = 0.0
    db = 0.0
    for message in flow:
        if message.dst not in on_board_set:
            continue
        cost = platform.message_cost_s(message.dst) * rate_per_s
        name = message.dst.value
        by_function[name] = by_function.get(name, 0.0) + (
            cost / budget_s * 100.0)
        others += cost * _OTHERS_FRACTION / budget_s * 100.0
        if message.carries or message.creates:
            db += (_DB_WEIGHT * platform.base_cost_us * 1e-6
                   * rate_per_s / budget_s * 100.0)
    if others:
        by_function["Others"] = others
    if db:
        by_function["DB"] = db
    return CpuBreakdown(platform.name, rate_per_s, by_function)
