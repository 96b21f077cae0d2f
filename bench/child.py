"""One workload in one process: set-up, jobs, verification, result.

Spawned by :mod:`bench.cli` with a pinned environment; talks back in
JSON lines on stdout (``{"event": "ready"}`` once set-up is done, then
one ``{"event": "result", ...}``).  The parent stamps the ``ready``
line to time set-up from process spawn, interpreter start included.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

from . import OUT_DIR, layers, stats, trace

#: Timed jobs per run never drop below this (one in smoke mode): the
#: slowest workload must still offer the best-of a few chances at a
#: quiet stretch of the host.
MIN_JOBS = 3


def _emit(event: str, **payload: Any) -> None:
    print(json.dumps({"event": event, **payload}), flush=True)


def _reset_program_state() -> None:
    """Host hygiene: every workload starts and ends on cold caches."""
    from repro.orbits.snapshot import clear_snapshot_cache
    from repro.runtime import (
        clear_shard_caches,
        reset_planner,
        shutdown_worker_pools,
    )
    shutdown_worker_pools()
    clear_snapshot_cache()
    clear_shard_caches()
    reset_planner()


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    Call after ``shutdown_worker_pools()``: ``RUSAGE_CHILDREN`` only
    counts children that have been waited for.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def prepare() -> None:
    """Untimed: compile the walk kernel into the benchmark-owned cache
    and import every workload module (so set-up never pays bytecode
    compilation or a C build, on any commit)."""
    from repro.topology._walk_kernel import load_kernel

    from . import workloads  # noqa: F401  (imports the program)

    start = time.perf_counter()
    present = load_kernel() is not None
    _emit("result", kernel_build_s=time.perf_counter() - start,
          kernel_present=present)


def _timed_jobs(workload: Any, run: Any, seconds: float, min_jobs: int,
                smoke: bool) -> Dict[str, Any]:
    """Closed loop, one client: run jobs back to back until the next
    one would overrun ``seconds`` (but at least ``min_jobs``; exactly
    one in smoke mode)."""
    samples: List[float] = []
    attempted = failed = 0
    notes: List[str] = []
    first = None
    loop_start = time.perf_counter()
    while not samples or not smoke:
        if len(samples) >= min_jobs and (
                time.perf_counter() - loop_start
                + stats.median(samples) > seconds):
            break
        gc.collect()
        start = time.perf_counter()
        raw = run()
        samples.append(time.perf_counter() - start)
        outcome = workload.check(raw)
        del raw
        attempted += outcome.ops
        if first is None:
            first = outcome
        if outcome.digest != first.digest or outcome.counts != first.counts:
            # Same inputs, different simulated outputs: the job is
            # not deterministic, so none of its ops can be trusted.
            failed += outcome.ops
            notes.append(f"job {len(samples) - 1}: sim_digest drifted")
        else:
            failed += outcome.failed
        notes.extend(outcome.notes)
    assert first is not None
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "notes": notes, "ops_per_job": first.ops,
            "sim_digest": first.digest, "sim_counts": first.counts}


def run_timed(workload: Any, seconds: float, smoke: bool) -> Dict[str, Any]:
    jobs = _timed_jobs(workload, workload.run, seconds, MIN_JOBS, smoke)
    reference_notes = workload.finish()
    if reference_notes:
        jobs["failed"] = jobs["attempted"]
        jobs["notes"].extend(reference_notes)
    _reset_program_state()
    best = min(jobs["samples"])
    return {
        **jobs,
        "job_summary": stats.summarize(jobs["samples"]),
        "job_best_s": best,
        "ops_per_s": jobs["ops_per_job"] / best,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _expectation_notes(workload: Any, spans: List[trace.Span]) -> List[str]:
    """A boundary the workload must cross that recorded no span means a
    binding was missed (``from x import f`` somewhere new); one that
    must stay untouched and did not means the workload no longer
    bypasses that layer.  Either way the layer table is wrong."""
    counts = trace.counts_by_name(spans)
    notes = [f"expected boundary {name} was never hit"
             for name in workload.expect_hit if not counts.get(name)]
    notes += [f"boundary {name} predicted zero, hit {counts[name]}x"
              for name in workload.expect_zero if counts.get(name)]
    return notes


def run_traced(workload: Any, seconds: float, smoke: bool,
               kernel: Dict[str, Any]) -> Dict[str, Any]:
    """Untraced baseline jobs, then traced jobs of the same kind.

    The layer table is read off ONE traced job -- the one of median
    duration, so a host hiccup does not pick the job -- and counts are
    that job's own (deltas around it), so they repeat exactly.
    """
    from repro.orbits.snapshot import snapshot_cache_info
    from repro.runtime import planner_decisions, pools_created

    budget = seconds / 2.0
    baseline = _timed_jobs(workload, workload.traced_run, budget, 1, smoke)
    untraced_s = stats.median(baseline["samples"])

    tracer = trace.Tracer()
    jobs: List[Dict[str, Any]] = []
    notes = list(baseline["notes"])
    attempted, failed = baseline["attempted"], baseline["failed"]
    patches = trace.install(tracer, layers.BOUNDARIES)
    try:
        loop_start = time.perf_counter()
        while not jobs or (not smoke and time.perf_counter() - loop_start
                           + jobs[-1]["job_s"] <= budget):
            gc.collect()
            tracer.job = len(jobs)
            cache_before = snapshot_cache_info()
            decisions_before = len(planner_decisions())
            first_span = len(tracer.spans)
            with tracer.span("bench.job", "bench"):
                raw = workload.traced_run()
            cache_after = snapshot_cache_info()
            outcome = workload.check(raw)
            del raw
            jobs.append({
                "job_s": tracer.spans[first_span][trace.END]
                - tracer.spans[first_span][trace.START],
                "outcome": outcome,
                "snapshot_info": (cache_after[0] - cache_before[0],
                                  cache_after[1] - cache_before[1],
                                  cache_after[2]),
                "decisions": planner_decisions()[decisions_before:],
                "routing": workload.routing_counters(),
            })
            attempted += outcome.ops
            if outcome.digest != baseline["sim_digest"]:
                failed += outcome.ops
                notes.append(f"traced job {tracer.job}: sim_digest differs "
                             "from the untraced job")
            else:
                failed += outcome.failed
            notes.extend(outcome.notes)
    finally:
        trace.uninstall(patches)

    ranked = sorted(range(len(jobs)), key=lambda k: jobs[k]["job_s"])
    chosen = ranked[(len(ranked) - 1) // 2]
    job = jobs[chosen]
    spans = trace.job_spans(tracer.spans, chosen)
    notes += _expectation_notes(workload, spans)

    metrics = layers.span_metrics(spans)
    metrics.update(layers.counter_metrics(
        job["routing"], job["snapshot_info"], job["decisions"],
        pools_created(), int(metrics["runtime.fanouts"])))
    counts = job["outcome"].counts
    metrics.update({
        "faults.injected": counts.get("faults_injected", 0),
        "scenarios.golden_match_share": (
            counts["golden_matches"] / job["outcome"].ops
            if "golden_matches" in counts else 0.0),
        "scenarios.artifact_bytes": counts.get("artifact_bytes", 0),
        "topology.kernel_build_s": kernel["kernel_build_s"],
        "topology.kernel_present": int(kernel["kernel_present"]),
        "bench.trace_overhead_share":
            stats.median([j["job_s"] for j in jobs]) / untraced_s - 1.0,
        "bench.generator_s": workload.generator_s,
    })
    extra, extra_notes = workload.extra_layer_metrics(
        min(baseline["samples"]))
    metrics.update(extra)
    notes += extra_notes
    missing = layers.missing_metrics(metrics)
    if missing:
        notes.append(f"per-layer metrics not computed: {missing}")
    if notes:
        failed = attempted
    _reset_program_state()

    os.makedirs(OUT_DIR, exist_ok=True)
    trace.write_jsonl(tracer.spans, os.path.join(
        OUT_DIR, f"trace-{workload.name}.jsonl"))
    return {
        "attempted": attempted, "failed": failed, "notes": notes,
        "sim_digest": job["outcome"].digest, "sim_counts": counts,
        "metrics": metrics, "spans": len(spans),
        "traced_jobs": len(jobs), "untraced_jobs": len(baseline["samples"]),
        "largest_layer": layers.largest_layer(metrics),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--mode", required=True,
                        choices=("prepare", "setup-only", "timed", "traced"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--kernel", default="{}")
    args = parser.parse_args(argv)

    if args.mode == "prepare":
        prepare()
        return 0

    from .workloads import WORKLOADS

    _reset_program_state()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workload.warmup()
    _emit("ready")
    if args.mode == "setup-only":
        _reset_program_state()
        return 0
    if args.mode == "timed":
        result = run_timed(workload, args.seconds, args.smoke)
    else:
        result = run_traced(workload, args.seconds, args.smoke,
                            json.loads(args.kernel))
    _emit("result", workload=workload.name, op=workload.op, **result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
