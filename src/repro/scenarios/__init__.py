"""Declarative scenario catalog + SLO-gated resilience harness.

``ScenarioSpec`` (what to stress) -> ``run_scenario`` (seeded sharded
trials) -> canonical golden artifact -> ``SLOBudget`` verdict.  The
shipped catalog lives in :mod:`.catalog`; golden plumbing in
:mod:`.golden`; the ``repro scenario`` CLI fronts all of it.
"""

from .catalog import CATALOG, get_scenario, scenario_names
from .engine import ScenarioResult, build_schedule, run_scenario
from .golden import (
    CheckOutcome,
    check_scenario,
    golden_dir,
    golden_path,
    write_golden,
)
from .slo import DEGRADED, FAIL, PASS, SLOBudget, SLOReport, evaluate_slos
from .spec import ChaosSpec, PopulationSpec, ScenarioSpec

__all__ = [
    "CATALOG",
    "ChaosSpec",
    "CheckOutcome",
    "DEGRADED",
    "FAIL",
    "PASS",
    "PopulationSpec",
    "SLOBudget",
    "SLOReport",
    "ScenarioResult",
    "ScenarioSpec",
    "build_schedule",
    "check_scenario",
    "evaluate_slos",
    "get_scenario",
    "golden_dir",
    "golden_path",
    "run_scenario",
    "scenario_names",
    "write_golden",
]
