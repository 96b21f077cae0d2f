"""The benchmark's front door.

Two shapes of invocation:

* ``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` --
  the ``BENCHMARK.json`` contract: one workload, one result object as
  the last line of stdout.
* ``python3 -m bench [--seed N] [--smoke] [--runs K] [--aa]`` -- the
  whole ledger: every workload, untraced then traced, every metric
  printed by name with its unit, written to ``bench/out/ledger.json``.

Either way each workload runs in child processes of its own
(:mod:`bench.child`) under a pinned environment; this process only
spawns, stamps set-up time, and reports.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from . import BENCH_DIR, OUT_DIR, ROOT, compare, hostinfo, stats
from .layers import PER_LAYER_UNITS

SRC_DIR = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("scenario-check", "chaos-sharded", "wave-steady",
                  "wave-churn")
END_TO_END_UNITS = {"setup_s": "s", "job_best_s": "s", "ops_per_s": "ops/s",
                    "peak_rss_mb": "MiB"}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
DEFAULT_SECONDS = 20.0
#: A child that outlives this is killed (the contract allows a run 180 s).
CHILD_TIMEOUT_S = 170.0
#: chaos-sharded fans out to two workers; fewer cores measure contention.
MIN_CORES_SHARDED = 2

#: Environment the program reads, pinned for every child.  ``None``
#: means "unset": ``REPRO_NO_CKERNEL``/``REPRO_NO_SCIPY`` disable their
#: feature on ANY non-empty value, so the only way to pin them off is
#: to remove them.
PINNED_ENV: Dict[str, Optional[str]] = {
    "REPRO_WORKERS": "1",
    "REPRO_PLANNER": "auto",
    "REPRO_NO_CKERNEL": None,
    "REPRO_NO_SCIPY": None,
    "REPRO_SCENARIO_GOLDEN_DIR": None,
    "REPRO_KERNEL_CACHE": os.path.join(OUT_DIR, "kernel-cache"),
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": os.pathsep.join((SRC_DIR, ROOT)),
    # glibc hands every freed >32 MiB block straight back to the kernel
    # and a 1M-packet wave frees 256 MiB per job; on the reference
    # microVM re-faulting that memory made every third job 2x slower
    # (p50 0.80 s vs 0.63 s).  Keep freed memory in the heap instead.
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": "4000000000",
}


#: What a ledger records of it (the path pin is checkout-specific).
RECORDED_ENV = {key: value for key, value in PINNED_ENV.items()
                if key != "PYTHONPATH"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result (never a number)."""


class Skipped(BenchError):
    """The host cannot run this workload meaningfully."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for key, value in PINNED_ENV.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(mode: str, extra: List[str]) -> Tuple[Optional[float],
                                                Dict[str, Any]]:
    """Run one child to completion: (seconds until ready, result)."""
    command = [sys.executable, "-m", "bench.child", "--mode", mode] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc,))
    watchdog.start()
    ready_s = None
    result: Optional[Dict[str, Any]] = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            try:
                message = json.loads(line)
                event = message.get("event")
            except (ValueError, AttributeError):
                event = None
            if event == "ready":
                ready_s = time.perf_counter() - start
            elif event == "result":
                result = message
            else:
                sys.stderr.write(line)   # the program's own chatter
        code = proc.wait()
    finally:
        watchdog.cancel()
        _kill_group(proc)   # pool workers of a child that died early
        proc.wait()
    if code != 0:
        raise BenchError(f"{' '.join(command[1:])} exited with {code}")
    if mode != "setup-only" and result is None:
        raise BenchError(f"{' '.join(command[1:])} printed no result")
    return ready_s, result or {}


def prepare() -> Dict[str, Any]:
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise BenchError(f"no program to measure: {SRC_DIR}/repro is "
                         "missing (run from a checkout of the repo)")
    os.makedirs(OUT_DIR, exist_ok=True)
    _, kernel = spawn("prepare", [])
    return {"kernel_build_s": kernel["kernel_build_s"],
            "kernel_present": kernel["kernel_present"]}


def _workload_args(name: str, seed: int, seconds: float,
                   smoke: bool) -> List[str]:
    args = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds)]
    return args + ["--smoke"] if smoke else args


def _require_cores(name: str) -> None:
    cores = hostinfo.usable_cores()
    if name == "chaos-sharded" and cores < MIN_CORES_SHARDED:
        raise Skipped(f"chaos-sharded needs >= {MIN_CORES_SHARDED} usable "
                      f"cores, this host has {cores}")


def run_untraced(name: str, seed: int, seconds: float, smoke: bool
                 ) -> Dict[str, Any]:
    """``SETUP_SAMPLES`` set-ups (the last one goes on to the timed
    jobs); end-to-end metrics with tracing off."""
    _require_cores(name)
    args = _workload_args(name, seed, seconds, smoke)
    setups = []
    for _ in range(0 if smoke else SETUP_SAMPLES - 1):
        ready_s, _ = spawn("setup-only", args)
        setups.append(ready_s)
    ready_s, result = spawn("timed", args)
    setups.append(ready_s)
    if any(sample is None for sample in setups):
        raise BenchError(f"{name}: a child never reported ready")
    result["setup_samples"] = setups
    result["metrics"] = {
        "setup_s": stats.median(setups),
        "job_best_s": result["job_best_s"],
        "ops_per_s": result["ops_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result


def run_traced(name: str, seed: int, seconds: float, smoke: bool,
               kernel: Dict[str, Any]) -> Dict[str, Any]:
    _require_cores(name)
    _, result = spawn("traced", _workload_args(name, seed, seconds, smoke)
                      + ["--kernel", json.dumps(kernel)])
    return result


# -- printing ---------------------------------------------------------------

def _print_header(kernel: Dict[str, Any]) -> Dict[str, Any]:
    header = hostinfo.host_header()
    header["c_walk_kernel"] = bool(kernel["kernel_present"])
    print("host: " + json.dumps(header, sort_keys=True))
    print("env:  " + json.dumps(RECORDED_ENV, sort_keys=True))
    return header


def _print_metrics(name: str, result: Dict[str, Any],
                   units: Dict[str, str]) -> None:
    for metric, unit in units.items():
        print(f"[{name}] {metric} = {result['metrics'][metric]:.6g} {unit}")
    for note in result["notes"]:
        print(f"[{name}] FAILED: {note}")


def _print_untraced(name: str, result: Dict[str, Any]) -> None:
    summary = result["job_summary"]
    tail = ("" if (summary["tail_percentile"] or 50.0) <= 50.0 else
            f" p{summary['tail_percentile']:g}={summary['tail_value']:.4f}")
    print(f"[{name}] op={result['op']} ops/job={result['ops_per_job']} "
          f"jobs={summary['n']} job_p50_s={summary['p50']:.4f} "
          f"q1={summary['q1']:.4f} q3={summary['q3']:.4f} "
          f"max={summary['max']:.4f}{tail} (s)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{name}] failed_share = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    print(f"[{name}] sim_digest = {result['sim_digest']}")
    print(f"[{name}] sim_counts = "
          + json.dumps(result["sim_counts"], sort_keys=True))
    _print_metrics(name, result, END_TO_END_UNITS)


def _print_traced(name: str, result: Dict[str, Any]) -> None:
    print(f"[{name}] traced: {result['spans']} spans in the reported job "
          f"({result['traced_jobs']} traced, {result['untraced_jobs']} "
          f"untraced jobs); largest layer row: {result['largest_layer']}")
    _print_metrics(name, result, PER_LAYER_UNITS)


def _contract_line(result: Dict[str, Any], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": result["failed"] == 0 and not result["notes"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    })


# -- the two shapes ---------------------------------------------------------

def run_contract(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool) -> int:
    kernel = prepare()
    _print_header(kernel)
    if traced:
        result = run_traced(name, seed, seconds, smoke, kernel)
        _print_traced(name, result)
        print(_contract_line(result, PER_LAYER_UNITS))
    else:
        result = run_untraced(name, seed, seconds, smoke)
        _print_untraced(name, result)
        print(_contract_line(result, END_TO_END_UNITS))
    return 0


def run_suite(seed: int, seconds: float, smoke: bool, runs: int,
              out_path: str) -> Dict[str, Any]:
    kernel = prepare()
    ledger: Dict[str, Any] = {
        "host": _print_header(kernel), "seed": seed, "smoke": smoke,
        "seconds": seconds, "env": RECORDED_ENV,
        "bounds": compare.load_bounds(os.path.join(ROOT, "BENCHMARK.json")),
        "workloads": {},
    }
    for name in WORKLOAD_NAMES:
        try:
            untraced = [run_untraced(name, seed, seconds, smoke)
                        for _ in range(runs)]
            traced = run_traced(name, seed, seconds, smoke, kernel)
        except Skipped as reason:
            print(f"[{name}] skipped: {reason}")
            ledger["workloads"][name] = {"skipped": str(reason)}
            continue
        for result in untraced:
            _print_untraced(name, result)
        _print_traced(name, traced)
        attempted = sum(r["attempted"] for r in untraced)
        failed = sum(r["failed"] for r in untraced)
        if traced["failed"]:
            failed = attempted   # the traced run's checks judge the workload
        ledger["workloads"][name] = {
            "op": untraced[0]["op"],
            "ops_per_job": untraced[0]["ops_per_job"],
            "end_to_end": {
                metric: {"unit": unit,
                         "values": [r["metrics"][metric] for r in untraced],
                         "median": stats.median(
                             [r["metrics"][metric] for r in untraced])}
                for metric, unit in END_TO_END_UNITS.items()},
            "job_samples": [r["samples"] for r in untraced],
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "sim_digest": untraced[0]["sim_digest"],
            "sim_digests_agree": len(
                {r["sim_digest"] for r in untraced}
                | {traced["sim_digest"]}) == 1,
            "sim_counts": untraced[0]["sim_counts"],
            "per_layer": {metric: {"unit": unit,
                                   "value": traced["metrics"][metric]}
                          for metric, unit in PER_LAYER_UNITS.items()},
            "largest_layer": traced["largest_layer"],
            "notes": [n for r in untraced for n in r["notes"]]
            + traced["notes"],
        }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(out_path, ROOT)}")
    return ledger


def _ledger_ok(ledger: Dict[str, Any]) -> bool:
    return all("skipped" in entry or (entry["failed"] == 0
                                      and entry["sim_digests_agree"]
                                      and not entry["notes"])
               for entry in ledger["workloads"].values())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="10x smaller jobs, one repeat, one set-up")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (suite mode)")
    parser.add_argument("--aa", action="store_true",
                        help="two full sets back to back, then compare")
    parser.add_argument("--out", default=None,
                        help="ledger path (suite mode)")
    args = parser.parse_args(argv)
    try:
        if args.workload:
            return run_contract(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.smoke)
        if args.aa:
            paths = [os.path.join(OUT_DIR, f"ledger-{side}.json")
                     for side in "AB"]
            ledgers = [run_suite(args.seed, args.seconds, args.smoke,
                                 args.runs, path) for path in paths]
            code = compare.main(paths)
            return code if all(map(_ledger_ok, ledgers)) else 1
        ledger = run_suite(args.seed, args.seconds, args.smoke, args.runs,
                           args.out or os.path.join(OUT_DIR, "ledger.json"))
        return 0 if _ledger_ok(ledger) else 1
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 3 if isinstance(error, Skipped) else 2
