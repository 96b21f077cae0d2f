"""Failure and attack models (S3.3, Fig. 13, Fig. 19) + chaos engine."""

from .chaos import (
    ChaosController,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from .attacks import (
    HijackScenario,
    JammingAttack,
    hijack_initial_leak,
    hijack_leak_rate,
    hijack_leak_series,
    mitm_comparison,
    mitm_leak_rate,
)
from .failures import (
    DecaySample,
    GilbertElliottChannel,
    procedure_success_probability,
    satellite_decay_series,
)

__all__ = [
    "ChaosController", "FaultEvent", "FaultKind", "FaultSchedule",
    "HijackScenario", "JammingAttack", "hijack_initial_leak",
    "hijack_leak_rate",
    "hijack_leak_series", "mitm_comparison", "mitm_leak_rate",
    "DecaySample", "GilbertElliottChannel",
    "procedure_success_probability", "satellite_decay_series",
]
