"""Trace 1 reconstruction and dataset replay driving.

Trace 1 of the paper shows a session establishment on the Inmarsat
Explorer 710: service request at 10:10:16, RAU, authentication, QoS
negotiation, PDP activation -- spanning ~10 seconds through the
remote GEO gateway.  :func:`trace1_timeline` synthesises timelines
with that structure (layer sequence and delay distribution), and
:func:`replay_cpu_series` feeds a Table 2 trace through the hardware
model to produce a satellite CPU time series.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..hardware.model import HardwarePlatform, RASPBERRY_PI_4
from .traces import REGISTRATION_DELAY_S, TraceMessage, synthesize


@dataclass(frozen=True)
class TimelineEvent:
    """One line of a Trace 1-style log."""

    t_s: float
    layer: str
    text: str


#: The Trace 1 event skeleton: (layer, text, share of total duration
#: elapsed when the event fires).  Shares follow the paper's
#: timestamps (10:10:16.074 ... 10:10:20.222, total ~4.1 s of listed
#: events inside a ~10 s procedure).
_TRACE1_SKELETON: Sequence[Tuple[str, str, float]] = (
    ("GMM", "Initiating service request", 0.00),
    ("GMM", "Signalling connection secured", 0.15),
    ("GMM", "Initiating RAU procedure", 0.55),
    ("MM", "MM_LOCUPDPEND", 0.555),
    ("MM", "MM_WAITRRLOCUPD", 0.556),
    ("MM", "MM_LOCUPDINIT", 0.557),
    ("SM", "AL State:DATA_CONN_ACTIVE", 0.70),
    ("GMM", "Authentication request received", 0.90),
    ("SM", "Qos: transferdelay:22, maxSDU:1500", 0.97),
    ("SM", "Qos:bitRateUp:512/896, Down:512/896", 0.975),
    ("SM-GW", "pdp new state Active", 1.00),
)


def trace1_timeline(seed: int = 0) -> List[TimelineEvent]:
    """One synthetic session-establishment timeline (Trace 1).

    The event order is fixed (it is the protocol); the total duration
    is drawn from the Inmarsat Explorer 710's measured
    registration-delay model, so ensembles of timelines reproduce the
    Fig. 5b distribution.
    """
    mean = REGISTRATION_DELAY_S["inmarsat-explorer-710"]
    rng = random.Random(seed)
    floor = 0.55 * mean
    duration = floor + rng.expovariate(1.0 / (mean - floor))
    return [TimelineEvent(share * duration, layer, text)
            for layer, text, share in _TRACE1_SKELETON]


def timeline_duration_s(timeline: List[TimelineEvent]) -> float:
    """Elapsed seconds from the first to the last timeline event."""
    return timeline[-1].t_s - timeline[0].t_s if timeline else 0.0


# ---------------------------------------------------------------------------
# Dataset replay -> CPU series
# ---------------------------------------------------------------------------

#: CPU weight per protocol layer, relative to a weight-1.0 message.
_LAYER_WEIGHTS: Dict[str, float] = {
    "L1/L2": 0.05,     # hardware-offloaded framing
    "RRC": 0.8,
    "MM": 1.0,
    "SM": 1.0,
    "Others": 0.3,
}


@dataclass(frozen=True)
class CpuSample:
    """CPU utilisation over one replay window."""

    window_start_s: float
    messages: int
    cpu_percent: float


def replay_cpu_series(source: str, num_messages: int,
                      window_s: float = 30.0,
                      platform: HardwarePlatform = RASPBERRY_PI_4
                      ) -> List[CpuSample]:
    """Feed a synthesized 10-minute Table 2 trace through the CPU model.

    Returns one utilisation sample per window -- the replay-driven
    counterpart of the analytic Fig. 7 bars.
    """
    if window_s <= 0:
        raise ValueError("windows must be positive")
    duration_s = 600.0
    trace = synthesize(source, num_messages, duration_s)
    windows: Dict[int, List[TraceMessage]] = {}
    for message in trace:
        windows.setdefault(int(message.time_s // window_s),
                           []).append(message)
    budget = platform.cores * window_s
    series: List[CpuSample] = []
    for index in range(int(duration_s // window_s)):
        batch = windows.get(index, [])
        cost = sum(_LAYER_WEIGHTS.get(m.layer, 1.0)
                   * platform.base_cost_us * 1e-6 for m in batch)
        series.append(CpuSample(
            window_start_s=index * window_s,
            messages=len(batch),
            cpu_percent=min(100.0, cost / budget * 100.0),
        ))
    return series
