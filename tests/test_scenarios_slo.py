"""SLO evaluation edge cases (ISSUE 7 satellite coverage).

The verdict logic must behave at the boundaries: empty snapshots,
every-trial-failed runs, observations exactly at their threshold, and
the degraded band around each budget line.
"""

import pytest

from repro.scenarios import (
    DEGRADED,
    FAIL,
    PASS,
    SLOBudget,
    evaluate_slos,
)
from repro.scenarios.slo import SLOReport, percentile


def _check(report, name):
    match = [c for c in report.checks if c.name == name]
    assert len(match) == 1, f"missing check {name}"
    return match[0]


class TestEmptySummary:
    def test_empty_summary_fails_availability_not_crashes(self):
        report = evaluate_slos(SLOBudget(), {})
        assert report.verdict == FAIL
        assert _check(report, "availability").verdict == FAIL
        # Zero-observation ceilings pass: nothing happened, nothing
        # exceeded a budget.
        assert _check(report, "p99_recovery_latency_s").verdict == PASS

    def test_empty_report_passes_vacuously(self):
        assert SLOReport([]).verdict == PASS

    def test_all_checks_disabled_yields_no_checks(self):
        budget = SLOBudget(availability_floor=None,
                           p99_latency_ceiling_s=None,
                           retry_budget_attempts=None,
                           max_lost_sessions=None,
                           survival_margin_floor=None)
        report = evaluate_slos(budget, {})
        assert report.checks == []
        assert report.verdict == PASS


class TestAllTrialsFailed:
    def test_total_loss_fails_floors_and_lost_budget(self):
        summary = {
            "spacecore_mean_survival": 0.0,
            "baseline_mean_survival": 0.0,
            "survival_margin": 0.0,
            "spacecore_p99_recovery_s": 0.0,
            "spacecore_mean_attempts": 0.0,
            "spacecore_lost": 24,
        }
        report = evaluate_slos(SLOBudget(max_lost_sessions=2), summary)
        assert report.verdict == FAIL
        assert _check(report, "availability").verdict == FAIL
        assert _check(report, "lost_sessions").verdict == FAIL
        # Margin floor of 0.0 with margin exactly 0.0: met without
        # headroom -- degraded, not failed.
        assert _check(report, "survival_margin").verdict == DEGRADED


class TestExactThreshold:
    """Budget exactly at threshold: met, but with zero headroom."""

    def test_floor_exactly_at_threshold_is_degraded(self):
        budget = SLOBudget(availability_floor=0.9)
        report = evaluate_slos(budget, {"spacecore_mean_survival": 0.9})
        assert _check(report, "availability").verdict == DEGRADED

    def test_ceiling_exactly_at_threshold_is_degraded(self):
        budget = SLOBudget(p99_latency_ceiling_s=30.0,
                           availability_floor=None)
        report = evaluate_slos(budget,
                               {"spacecore_p99_recovery_s": 30.0})
        assert _check(report, "p99_recovery_latency_s").verdict == DEGRADED

    def test_just_over_floor_band_passes(self):
        budget = SLOBudget(availability_floor=0.9, degraded_margin=0.05)
        report = evaluate_slos(budget,
                               {"spacecore_mean_survival": 0.95})
        assert _check(report, "availability").verdict == PASS

    def test_just_under_floor_fails(self):
        budget = SLOBudget(availability_floor=0.9)
        report = evaluate_slos(
            budget, {"spacecore_mean_survival": 0.8999999})
        assert _check(report, "availability").verdict == FAIL

    def test_zero_threshold_uses_absolute_band(self):
        budget = SLOBudget(survival_margin_floor=0.0,
                           degraded_margin=0.05)
        degraded = evaluate_slos(budget, {"survival_margin": 0.04,
                                          "spacecore_mean_survival": 1.0})
        passing = evaluate_slos(budget, {"survival_margin": 0.06,
                                         "spacecore_mean_survival": 1.0})
        assert _check(degraded, "survival_margin").verdict == DEGRADED
        assert _check(passing, "survival_margin").verdict == PASS


class TestVerdictAggregation:
    def test_worst_check_wins(self):
        budget = SLOBudget(availability_floor=0.9,
                           p99_latency_ceiling_s=30.0)
        summary = {"spacecore_mean_survival": 1.0,
                   "spacecore_p99_recovery_s": 31.0,
                   "survival_margin": 0.5}
        report = evaluate_slos(budget, summary)
        assert report.verdict == FAIL
        failed = [c.name for c in report.checks if c.verdict == FAIL]
        assert failed == ["p99_recovery_latency_s"]

    def test_degraded_beats_pass(self):
        budget = SLOBudget(availability_floor=0.9)
        report = evaluate_slos(budget, {"spacecore_mean_survival": 0.91,
                                        "survival_margin": 0.5})
        assert report.verdict == DEGRADED

    def test_report_json_round_trips_names_and_verdicts(self):
        report = evaluate_slos(SLOBudget(),
                               {"spacecore_mean_survival": 1.0,
                                "survival_margin": 0.5})
        payload = report.to_json()
        assert payload["verdict"] == report.verdict
        assert {c["name"] for c in payload["checks"]} == {
            c.name for c in report.checks}


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99.0) == 0.0

    def test_single_value(self):
        assert percentile([4.2], 99.0) == 4.2

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile([float(v) for v in values], 99.0) == 99.0
        assert percentile([float(v) for v in values], 50.0) == 50.0
        assert percentile([float(v) for v in values], 100.0) == 100.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestBudgetValidation:
    def test_degraded_margin_bounds(self):
        with pytest.raises(ValueError):
            SLOBudget(degraded_margin=1.0)
        with pytest.raises(ValueError):
            SLOBudget(degraded_margin=-0.01)

    def test_describe_is_json_ready(self):
        import json
        json.dumps(SLOBudget().describe(), sort_keys=True)
