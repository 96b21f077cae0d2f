"""Experiment harness: one module per table/figure of the evaluation.

``report.RENDERERS`` renders each paper artifact (Tables 1-4, Figures
5-21) once from these modules; DESIGN.md's experiment index maps every
artifact to its module and its report section.
"""

from .availability import (
    AvailabilityPoint,
    availability_sweep,
    gateway_reachability,
)
from .bottleneck import (
    GatewayConcentration,
    deadline_violation_factor,
    gateway_concentration,
    registration_delay_cdf,
)
from .chaos_availability import (
    ChaosAvailabilityResult,
    ChaosMonteCarlo,
    ChaosScenario,
    SurvivalSample,
    run_chaos_availability,
    run_chaos_trials,
    write_chaos_report,
)
from .cpu import (
    FIG7_RATES,
    FIG8_RATES,
    LatencyPoint,
    fig7_cpu_breakdown,
    fig8_latency_sweep,
)
from .leakage import LeakageStudy, fig19_study, final_hijack_leaks
from .moving_areas import (
    ServiceAreaChurn,
    fig11_comparison,
    geospatial_area_churn,
    logical_area_churn,
)
from .observability import (
    chaos_observability,
    cohort_observability,
    write_metrics_snapshot,
    write_trace_jsonl,
)
from .prototype import (
    FIG17_RATES,
    PrototypePoint,
    fig17_sweep,
    solution_cpu_percent,
    solution_latency_s,
)
from .relay import (
    RelayComparison,
    RelaySweepStats,
    RelayTrial,
    compare_ideal_vs_j4,
    relay_router,
    relay_sweep_stats,
    relay_times,
    relay_trials,
)
from .report import generate_report, write_report
from .sensitivity import (
    ScalingPoint,
    SensitivityPoint,
    constellation_scaling,
    sensitivity_sweep,
    worst_case_reduction,
)
from .signaling import (
    ACTIVE_SATELLITE_FRACTION,
    SignalingLoad,
    cohort_load_point,
    mean_hops_to_ground,
    reduction_factors,
    signaling_load,
    sweep,
)
from .temporal import (
    TemporalSample,
    load_variation,
    satellite_ground_track_load,
)
from .state_footprint import (
    StateFootprint,
    footprint_comparison,
    satellite_state_footprint,
)
from .userlevel import (
    StallResult,
    fig21_comparison,
    satellite_pass_impact,
    tcp_recovery_time_s,
)

__all__ = [
    "AvailabilityPoint", "availability_sweep",
    "gateway_reachability",
    "GatewayConcentration", "deadline_violation_factor",
    "gateway_concentration", "registration_delay_cdf",
    "ChaosAvailabilityResult", "ChaosMonteCarlo", "ChaosScenario",
    "SurvivalSample", "run_chaos_availability", "run_chaos_trials",
    "write_chaos_report",
    "FIG7_RATES", "FIG8_RATES", "LatencyPoint", "fig7_cpu_breakdown",
    "fig8_latency_sweep",
    "LeakageStudy", "fig19_study", "final_hijack_leaks",
    "FIG17_RATES", "PrototypePoint", "fig17_sweep",
    "solution_cpu_percent",
    "solution_latency_s",
    "RelayComparison", "RelaySweepStats", "RelayTrial",
    "compare_ideal_vs_j4", "relay_router",
    "relay_sweep_stats", "relay_times", "relay_trials",
    "ACTIVE_SATELLITE_FRACTION", "SignalingLoad", "cohort_load_point",
    "mean_hops_to_ground", "reduction_factors", "signaling_load", "sweep",
    "TemporalSample", "load_variation", "satellite_ground_track_load",
    "StallResult", "fig21_comparison", "satellite_pass_impact",
    "tcp_recovery_time_s",
    "chaos_observability", "cohort_observability",
    "write_metrics_snapshot", "write_trace_jsonl",
    "generate_report", "write_report",
    "ServiceAreaChurn", "fig11_comparison", "geospatial_area_churn",
    "logical_area_churn",
    "ScalingPoint", "SensitivityPoint",
    "constellation_scaling", "sensitivity_sweep",
    "worst_case_reduction",
    "StateFootprint", "footprint_comparison",
    "satellite_state_footprint",
]
