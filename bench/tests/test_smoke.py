"""Drive the real harness in ``--smoke`` mode (10x smaller jobs, one
repeat, one set-up): the whole ledger in about 20 s on the reference
host, the contract's result line, and the refusal to run without a
program to measure."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import cli, hostinfo, layers

ROOT = cli.ROOT


def _bench(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "ledger.json"
    proc = _bench("--smoke", "--seed", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text())


def _measured(ledger):
    return {name: entry for name, entry in ledger["workloads"].items()
            if "skipped" not in entry}


def test_smoke_runs_every_workload_without_a_failed_op(smoke):
    _, ledger = smoke
    assert sorted(ledger["workloads"]) == sorted(cli.WORKLOAD_NAMES)
    if hostinfo.usable_cores() < cli.MIN_CORES_SHARDED:
        assert "skipped" in ledger["workloads"]["chaos-sharded"]
    else:
        assert len(_measured(ledger)) == 4
    for name, entry in _measured(ledger).items():
        assert entry["failed_share"] == 0, (name, entry["notes"])
        assert entry["sim_digests_agree"], name
        for metric in cli.END_TO_END_UNITS:
            assert entry["end_to_end"][metric]["median"] > 0, (name, metric)
        assert set(entry["per_layer"]) == set(layers.PER_LAYER_UNITS)
    assert ledger["env"]["PYTHONHASHSEED"] == "0"
    assert ledger["env"]["REPRO_NO_CKERNEL"] is None
    assert ledger["host"]["cores"] == hostinfo.usable_cores()


def test_smoke_prints_every_metric_by_name_with_its_unit(smoke):
    stdout, ledger = smoke
    for name in _measured(ledger):
        for metric, unit in {**cli.END_TO_END_UNITS,
                             **layers.PER_LAYER_UNITS,
                             "failed_share": "ratio"}.items():
            assert any(line.startswith(f"[{name}] {metric} = ")
                       and f" {unit}" in line
                       for line in stdout.splitlines()), (name, metric)
        assert f"[{name}] sim_digest = " in stdout


def test_traced_shape_of_the_two_waves(smoke):
    _, ledger = smoke

    def layer(name, metric):
        return ledger["workloads"][name]["per_layer"][metric]["value"]

    assert layer("wave-steady", "topology.fallback_share") == 0
    assert layer("wave-steady", "topology.scalar_route_calls") == 0
    assert layer("wave-steady", "topology.table_builds") == 0   # warm cache
    assert layer("wave-steady", "topology.table_hit_share") == 1
    assert layer("wave-steady", "crypto.sign_calls") == 0
    assert layer("wave-steady", "runtime.sharded_share") == 0
    assert layer("wave-churn", "topology.table_builds") == 10  # one a step
    assert layer("wave-churn", "orbits.snapshot_builds") == 10
    assert layer("wave-churn", "topology.fallback_share") > 0
    assert layer("wave-churn", "topology.snapshot_graph_calls") == 0
    assert layer("scenario-check", "scenarios.golden_match_share") == 1
    assert layer("scenario-check", "topology.snapshot_graph_calls") > 0
    assert layer("scenario-check", "runtime.sharded_share") == 0
    for name in _measured(ledger):
        assert 0 <= layer(name, "bench.untraced_share") < 0.15


def test_a_ledger_compares_clean_against_itself(smoke, tmp_path):
    _, ledger = smoke
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(ledger))
    proc = subprocess.run(
        [sys.executable, os.path.join(cli.BENCH_DIR, "compare.py"),
         str(path), str(path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "compare: ok" in proc.stdout


@pytest.mark.parametrize("trace, units", [
    ("0", cli.END_TO_END_UNITS), ("1", layers.PER_LAYER_UNITS)])
def test_contract_result_line(trace, units):
    proc = _bench("--workload", "wave-churn", "--seed", "3", "--seconds",
                  "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {name: row["unit"] for name, row in result["metrics"].items()} \
        == units
    assert all(isinstance(row["value"], (int, float))
               for row in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(cli.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "wave-steady", "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "src/repro is missing" in proc.stderr
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_agrees_with_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["run_seconds"] == cli.DEFAULT_SECONDS
    assert tuple(w["name"] for w in spec["workloads"]) == cli.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == cli.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER_METRICS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
