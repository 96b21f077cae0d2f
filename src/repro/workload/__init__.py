"""Signaling workloads: Table 2 trace synthesis and Trace 1 replay.

Session arrivals are drawn where they are consumed:
:mod:`repro.sim.emulation` samples exponential inter-arrivals per UE
and :mod:`repro.runtime.cohort` Poisson counts per cohort.
"""

from .replay import (
    CpuSample,
    TimelineEvent,
    replay_cpu_series,
    timeline_duration_s,
    trace1_timeline,
)
from .traces import (
    REGISTRATION_DELAY_S,
    SATELLITE_SOURCES,
    TABLE2_COUNTS,
    TERRESTRIAL_SOURCES,
    TraceMessage,
    layer_mix,
    registration_delay_samples,
    synthesize,
    table2_summary,
    total_messages,
)

__all__ = [
    "CpuSample", "TimelineEvent", "replay_cpu_series",
    "timeline_duration_s", "trace1_timeline",
    "REGISTRATION_DELAY_S", "SATELLITE_SOURCES", "TABLE2_COUNTS",
    "TERRESTRIAL_SOURCES", "TraceMessage", "layer_mix",
    "registration_delay_samples", "synthesize", "table2_summary",
    "total_messages",
]
