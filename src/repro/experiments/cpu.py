"""CPU usage breakdown by core function (Fig. 7) and latency (Fig. 8).

Fig. 7 puts the full in-orbit function set (Option 3/4) on each of the
two satellite platforms and sweeps the initial/mobility registration
rate from 10 to 250 per second, reporting per-NF stacked CPU
utilisation.  Fig. 8 sweeps the same rates and reports the queueing
latency of registrations and session establishments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..baselines.options import option4_all_functions
from ..fiveg.messages import (
    INITIAL_REGISTRATION_FLOW,
    MOBILITY_REGISTRATION_FLOW,
    SESSION_ESTABLISHMENT_FLOW,
)
from ..hardware.model import (
    CpuBreakdown,
    HardwarePlatform,
    PLATFORMS,
    cpu_breakdown,
)
from ..hardware.queueing import LatencyEstimate, procedure_latency
from ..runtime.parallel import get_shared, run_sharded

#: Fig. 7's x-axis.
FIG7_RATES: Tuple[int, ...] = (10, 20, 30, 40, 50, 70, 100, 150, 200, 250)

#: Fig. 8's x-axis.
FIG8_RATES: Tuple[int, ...] = (10, 50, 100, 200, 300, 400, 500)

#: Registrations replayed in Fig. 7 mix initial and mobility runs.
_REGISTRATION_FLOW = (INITIAL_REGISTRATION_FLOW
                      + MOBILITY_REGISTRATION_FLOW)


def _fig7_point(rate) -> CpuBreakdown:
    """One registration-rate point of the Fig. 7 curve, shardable."""
    platform = get_shared("fig7:platform")
    option = option4_all_functions()
    half_each = [m for m in INITIAL_REGISTRATION_FLOW] + \
        [m for m in MOBILITY_REGISTRATION_FLOW]
    return cpu_breakdown(platform, rate / 2.0, half_each,
                         option.on_board)


def fig7_cpu_breakdown(platform: HardwarePlatform,
                       rates: Sequence[int] = FIG7_RATES,
                       workers: Optional[int] = None
                       ) -> List[CpuBreakdown]:
    """Per-NF CPU utilisation at each registration rate (Fig. 7)."""
    return run_sharded(_fig7_point, list(rates), workers=workers,
                       shared={"fig7:platform": platform},
                       label="cpu.fig7")


@dataclass(frozen=True)
class LatencyPoint:
    """One Fig. 8 sample."""

    platform: str
    rate_per_s: int
    registration: LatencyEstimate
    session: LatencyEstimate


def _fig8_point(work) -> LatencyPoint:
    """One (platform, rate) latency sample, shardable."""
    from ..baselines.options import option3_session_mobility
    platform_index, rate = work
    platform = get_shared("fig8:platforms")[platform_index]
    option = option3_session_mobility()
    # Fig. 8a replays initial *and* mobility registrations.
    registration = procedure_latency(
        platform, rate, _REGISTRATION_FLOW,
        option.on_board, 0.030)
    session = procedure_latency(
        platform, rate, SESSION_ESTABLISHMENT_FLOW,
        option.on_board, 0.030)
    return LatencyPoint(platform.name, rate, registration, session)


def fig8_latency_sweep(rates: Sequence[int] = FIG8_RATES,
                       workers: Optional[int] = None
                       ) -> List[LatencyPoint]:
    """Signaling latency vs load on both platforms (Fig. 8).

    Uses the Option 3 placement (Baoyun-like, matching the prototype)
    with the home a ~30 ms round trip away.  (platform, rate) points
    shard across workers in the serial walk's order.
    """
    platforms = tuple(PLATFORMS)
    return run_sharded(_fig8_point,
                       [(platform_index, rate)
                        for platform_index in range(len(platforms))
                        for rate in rates],
                       workers=workers,
                       shared={"fig8:platforms": platforms},
                       label="cpu.fig8")
