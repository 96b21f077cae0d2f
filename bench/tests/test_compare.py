"""Comparator verdicts on hand-made ledgers."""

import copy
import json

import pytest

from bench import compare

BOUNDS = {
    "job_p50_s": {"bound": 0.10, "better": "lower", "unit": "s"},
    "ops_per_s": {"bound": 0.10, "better": "higher", "unit": "ops/s"},
}


def _ledger(job_values, ops_values, failed_share=0.0, digest="abc",
            counts=None):
    return {"bounds": BOUNDS, "workloads": {"wave-steady": {
        "end_to_end": {"job_p50_s": {"unit": "s", "values": job_values},
                       "ops_per_s": {"unit": "ops/s", "values": ops_values}},
        "failed_share": failed_share, "sim_digest": digest,
        "sim_counts": counts or {"packets": 10}}}}


TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def test_verdict_ok_within_bound():
    slower = [v * 1.05 for v in TIGHT]
    assert compare.verdict(TIGHT, slower, 0.10, "lower") == compare.OK
    # Better is never a regression, however large.
    assert compare.verdict(TIGHT, [v * 0.5 for v in TIGHT], 0.10,
                           "lower") == compare.OK


def test_verdict_worse_beyond_bound_in_the_metric_s_direction():
    assert compare.verdict(TIGHT, [v * 1.2 for v in TIGHT], 0.10,
                           "lower") == compare.WORSE
    # higher-is-better: a drop is the regression, a rise is not.
    assert compare.verdict(TIGHT, [v * 0.8 for v in TIGHT], 0.10,
                           "higher") == compare.WORSE
    assert compare.verdict(TIGHT, [v * 1.2 for v in TIGHT], 0.10,
                           "higher") == compare.OK


def test_verdict_unresolved_when_spread_exceeds_bound_and_runs_interleave():
    noisy_a = [1.0, 1.4, 0.8, 1.3, 0.9, 1.5, 0.7, 1.2, 1.0, 1.1]
    noisy_b = [1.1, 1.3, 0.9, 1.6, 0.8, 1.4, 1.0, 1.2, 0.9, 1.5]
    assert compare.verdict(noisy_a, noisy_b, 0.10, "lower") \
        == compare.UNRESOLVED
    # Wide spread but every B run beyond every A run: medians decide.
    assert compare.verdict(noisy_a, [v + 2.0 for v in noisy_a], 0.10,
                           "lower") == compare.WORSE
    assert compare.verdict(noisy_a, [v * 0.4 for v in noisy_a], 0.10,
                           "lower") == compare.OK


def test_single_run_sets_compare_by_medians():
    assert compare.verdict([1.0], [1.05], 0.10, "lower") == compare.OK
    assert compare.verdict([1.0], [1.2], 0.10, "lower") == compare.WORSE


def test_compare_ledgers_flags_worse_digest_drift_and_failed_share(capsys):
    base = _ledger(TIGHT, [1 / v for v in TIGHT])
    assert compare.compare_ledgers(base, copy.deepcopy(base)) == []

    slow = _ledger([v * 1.3 for v in TIGHT], [1 / (v * 1.3) for v in TIGHT])
    failures = compare.compare_ledgers(base, slow)
    assert sorted(failures) == ["wave-steady/job_p50_s worse than the bound",
                                "wave-steady/ops_per_s worse than the bound"]

    drift = _ledger(TIGHT, [1 / v for v in TIGHT], digest="xyz")
    assert compare.compare_ledgers(base, drift) == [
        "wave-steady: sim_digest or simulated counts differ"]
    recount = _ledger(TIGHT, [1 / v for v in TIGHT], counts={"packets": 11})
    assert compare.compare_ledgers(base, recount) == [
        "wave-steady: sim_digest or simulated counts differ"]

    failing = _ledger(TIGHT, [1 / v for v in TIGHT], failed_share=0.01)
    assert compare.compare_ledgers(base, failing) == [
        "wave-steady: failed_share rose"]
    out = capsys.readouterr().out
    assert "B/A=1.3000 (base A=1)" in out and "-> worse" in out


def test_skipped_workloads_are_reported_not_compared(capsys):
    base = _ledger(TIGHT, TIGHT)
    skipped = {"bounds": BOUNDS,
               "workloads": {"wave-steady": {"skipped": "1 core"}}}
    assert compare.compare_ledgers(base, skipped) == []
    assert "skipped on one side" in capsys.readouterr().out


def test_main_exit_codes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_ledger(TIGHT, TIGHT)))
    b.write_text(json.dumps(_ledger([v * 1.5 for v in TIGHT], TIGHT)))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a)]) == 2


def test_load_bounds_reads_benchmark_json(tmp_path):
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}))
    assert compare.load_bounds(str(spec)) == {
        "setup_s": {"bound": 0.2, "better": "lower", "unit": "s"}}


def test_worse_by_has_a_base():
    assert compare.worse_by(2.0, 2.5, "lower") == pytest.approx(0.25)
    assert compare.worse_by(2.0, 1.5, "higher") == pytest.approx(0.25)
    assert compare.worse_by(2.0, 1.5, "lower") == pytest.approx(-0.25)
