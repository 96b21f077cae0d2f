"""Command-line front end for the reproduction.

Regenerate any table/figure::

    python -m repro report
    python -m repro table4
    python -m repro emulate --ues 20 --duration 600
    python -m repro list

``report`` prints every paper artifact; each artifact is also its own
command (``table4``, ``fig18b``, ...) that prints exactly its section
of that report (``report_sections.SECTION_TITLES``).  ``report
--check`` holds the report to the pinned ``artifacts/report.md``.  See
EXPERIMENTS.md for the paper-vs-measured notes.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, List, Optional

from .report_sections import SECTION_TITLES


def _cmd_list(args) -> int:
    print("available experiments:")
    for name, (_, description) in sorted(_COMMANDS.items()):
        print(f"  {name:10s} {description}")
    return 0


def _cmd_section(args) -> int:
    from .experiments.report import render_section
    sys.stdout.write(render_section(args.command))
    return 0


def _cmd_emulate(args) -> int:
    from .orbits import by_name
    from .sim import CohortEmulation, NeighborhoodEmulation
    if args.cohorts:
        emulation = CohortEmulation(
            by_name(args.constellation), num_ues=args.ues,
            seed=args.seed, session_interval_s=args.interval,
            n_cohorts=args.cohorts)
        stats = emulation.run(args.duration)
        print(f"cohort-emulated {stats.duration_s:.0f}s x "
              f"{stats.ue_count} UEs ({stats.n_cohorts} cohorts) on "
              f"{args.constellation}:")
        print(f"  sessions: {stats.sessions_established} "
              f"(rate {stats.session_rate_per_ue:.4f}/UE-s, predicted "
              f"{emulation.predicted_session_rate_per_ue():.4f})")
        print(f"  handovers: {stats.handovers}  "
              f"releases: {stats.releases}  mobility regs: "
              f"{stats.mobility_registrations}")
        print(f"  signaling messages: {stats.signaling_messages}")
        return 0
    emulation = NeighborhoodEmulation(
        by_name(args.constellation), num_ues=args.ues, seed=args.seed,
        session_interval_s=args.interval)
    stats = emulation.run(args.duration)
    print(f"emulated {stats.duration_s:.0f}s x {stats.ue_count} UEs on "
          f"{args.constellation}:")
    print(f"  sessions: {stats.sessions_established}/"
          f"{stats.sessions_attempted} "
          f"(rate {stats.session_rate_per_ue:.4f}/UE-s, predicted "
          f"{emulation.predicted_session_rate_per_ue():.4f})")
    print(f"  handovers: {stats.handovers}  releases: {stats.releases}"
          f"  fallbacks: {stats.fallbacks}")
    print(f"  signaling messages: {stats.signaling_messages}")
    return 0


def _cmd_chaos(args) -> int:
    from .experiments import (
        ChaosScenario,
        run_chaos_availability,
        run_chaos_trials,
        write_chaos_report,
    )
    scenario = ChaosScenario(seed=args.seed, n_ues=args.ues,
                             horizon_s=args.horizon)
    if args.trials > 1:
        mc = run_chaos_trials(n_trials=args.trials, base_seed=args.seed,
                              scenario=scenario, workers=args.workers)
        summary = mc.summary()
        print(f"chaos monte carlo -- {args.trials} trials x "
              f"{args.ues} UEs, seed {args.seed}:")
        print(f"  faults injected: {summary['faults_injected']}")
        print(f"  mean survival: spacecore="
              f"{summary['spacecore_mean_survival']:.3f} "
              f"baseline={summary['baseline_mean_survival']:.3f}")
        print(f"  min survival:  spacecore="
              f"{summary['spacecore_min_survival']:.3f} "
              f"baseline={summary['baseline_min_survival']:.3f}")
        print(f"  lost sessions: SpaceCore "
              f"{summary['spacecore_lost']}, baseline "
              f"{summary['baseline_lost']}")
        if args.output:
            write_chaos_report(args.output, mc)
            print(f"  wrote {args.output}")
        return 0
    result = run_chaos_availability(scenario=scenario)
    print(f"chaos availability -- {args.ues} UEs, "
          f"{args.horizon:.0f}s horizon, seed {args.seed}:")
    print(f"  faults injected: {len(result.fault_log)}")
    for sample in result.samples:
        print(f"  t={sample.t:7.0f}s survival "
              f"spacecore={sample.spacecore:.3f} "
              f"baseline={sample.baseline:.3f}")
    print(f"  lost sessions: SpaceCore {result.spacecore_lost}, "
          f"baseline {result.baseline_lost}")
    if args.output:
        write_chaos_report(args.output, result)
        print(f"  wrote {args.output}")
    return 0


def _cmd_loadpoint(args) -> int:
    import time
    from .baselines import ALL_SOLUTIONS
    from .experiments import cohort_load_point
    from .orbits import by_name
    factories = {f().name: f for f in ALL_SOLUTIONS}
    if args.solution not in factories:
        print(f"unknown solution {args.solution!r}; pick one of "
              f"{sorted(factories)}")
        return 1
    start = time.perf_counter()
    stats = cohort_load_point(
        factories[args.solution], by_name(args.constellation),
        n_ues=args.ues, duration_s=args.duration, seed=args.seed,
        n_cohorts=args.cohorts)
    wall_s = time.perf_counter() - start
    print(f"cohort load point -- {args.solution} on "
          f"{args.constellation}, {args.ues} UEs x "
          f"{args.duration:.0f}s ({stats.n_cohorts} cohorts):")
    print(f"  events: {stats.events_total} "
          f"({stats.events_per_ue_s:.5f}/UE-s)")
    for name, count in sorted(stats.events_by_procedure.items()):
        print(f"    {name}: {count}")
    print(f"  sessions: {stats.sessions_established} (rate "
          f"{stats.session_rate_per_ue:.4f}/UE-s)  releases: "
          f"{stats.releases}")
    print(f"  messages: total={stats.signaling_messages} "
          f"satellite={stats.satellite_messages} "
          f"crossing={stats.crossing_messages}")
    print(f"  wall clock: {wall_s:.3f}s "
          f"({args.ues / wall_s:,.0f} UEs/s)")
    return 0


def _cmd_metrics(args) -> int:
    from .experiments import (
        ChaosScenario,
        chaos_observability,
        cohort_observability,
        write_metrics_snapshot,
    )
    if args.experiment == "cohort":
        payload = cohort_observability(
            n_ues=args.ues, duration_s=args.duration,
            base_seed=args.seed, n_cohorts=args.cohorts,
            workers=args.workers)
    else:
        scenario = ChaosScenario(seed=args.seed, n_ues=args.ues,
                                 horizon_s=args.horizon)
        payload = chaos_observability(
            n_trials=args.trials, base_seed=args.seed,
            scenario=scenario, workers=args.workers)
    snapshot = payload["snapshot"]
    print(f"metrics -- {args.experiment} experiment, seed {args.seed}:")
    print(f"  counters:   {len(snapshot['counters'])} series")
    print(f"  gauges:     {len(snapshot['gauges'])} series")
    print(f"  histograms: {len(snapshot['histograms'])} series")
    for key, value in sorted(snapshot["counters"].items()):
        print(f"    {key} = {value}")
    if args.output:
        write_metrics_snapshot(args.output, payload)
        print(f"  wrote {args.output}")
    return 0


def _cmd_trace(args) -> int:
    from .experiments import (
        ChaosScenario,
        chaos_observability,
        write_trace_jsonl,
    )
    scenario = ChaosScenario(seed=args.seed, n_ues=args.ues,
                             horizon_s=args.horizon)
    payload = chaos_observability(n_trials=args.trials,
                                  base_seed=args.seed,
                                  scenario=scenario,
                                  workers=args.workers)
    spans = payload["trace"]
    print(f"trace -- chaos experiment, seed {args.seed}: "
          f"{len(spans)} spans")
    for span in spans[:args.head]:
        window = (f"[{span['start_s']:8.1f}s]"
                  if span["end_s"] == span["start_s"] else
                  f"[{span['start_s']:8.1f}s .. {span['end_s']:8.1f}s]")
        print(f"  {window} {span['name']}")
    if len(spans) > args.head:
        print(f"  ... {len(spans) - args.head} more")
    if args.output:
        written = write_trace_jsonl(args.output, payload)
        print(f"  wrote {written} spans to {args.output}")
    return 0


def _cmd_lint(args) -> int:
    from .analysis import lint_main
    return lint_main(args.paths)


def _cmd_report(args) -> int:
    from .experiments.report import generate_report
    if args.check:
        if args.full or args.output:
            print("repro report: --check compares the fast report and "
                  "takes no --full or --output", file=sys.stderr)
            return 2
        return _check_report()
    content = generate_report(fast=not args.full)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(content)
        print(f"report written to {args.output}")
    else:
        sys.stdout.write(content)
    return 0


def _check_report() -> int:
    """Exit 0 when the fast report is byte-identical to its golden, else
    1 with a unified diff on stderr."""
    from .experiments.report import generate_report
    from .scenarios.golden import diff_lines, report_golden_path
    path = report_golden_path()
    if not path.exists():
        print(f"no pinned report at {path}", file=sys.stderr)
        return 1
    expected = path.read_text(encoding="utf-8")
    actual = generate_report(fast=True)
    if actual == expected:
        print(f"report matches {path.name} "
              f"({len(actual.encode('utf-8'))} bytes)")
        return 0
    print(f"report drifted from {path}:", file=sys.stderr)
    for line in diff_lines(expected, actual, path.name, limit=200):
        print(line, file=sys.stderr)
    return 1


def _scenario_specs(args) -> Dict[str, object]:
    """The scenarios one ``repro scenario`` invocation addresses."""
    from .scenarios import CATALOG, get_scenario
    if getattr(args, "all_scenarios", False) or not args.names:
        return dict(CATALOG)
    return {name: get_scenario(name) for name in args.names}


def _print_slo_report(report) -> None:
    for check in report.checks:
        op = ">=" if check.kind == "floor" else "<="
        print(f"    [{check.verdict:8s}] {check.name:24s} "
              f"observed={check.observed:.6g} {op} "
              f"threshold={check.threshold:.6g}")


def _cmd_scenario(args) -> int:
    from .scenarios import (
        CATALOG,
        check_scenario,
        golden_path,
        run_scenario,
        write_golden,
    )
    from .scenarios.golden import diff_lines

    if args.action == "list":
        print(f"scenario catalog ({len(CATALOG)} scenarios):")
        for name in sorted(CATALOG):
            spec = CATALOG[name]
            golden = "golden" if golden_path(name).exists() else "NO GOLDEN"
            print(f"  {name:22s} trials={spec.n_trials} "
                  f"horizon={spec.horizon_s:.0f}s ues="
                  f"{spec.population.n_ues:<3d} [{golden}]")
            print(f"  {'':22s} {spec.title}")
        return 0

    specs = _scenario_specs(args)

    if args.action == "run":
        for name in sorted(specs):
            result = run_scenario(specs[name], workers=args.workers)
            report = result.slo_report()
            summary = result.summary()
            print(f"{name}: verdict={report.verdict} "
                  f"availability={summary['spacecore_mean_survival']:.3f} "
                  f"margin={summary['survival_margin']:.3f} "
                  f"p99={summary['spacecore_p99_recovery_s']:.2f}s "
                  f"faults={summary['faults_injected']}")
            _print_slo_report(report)
            if args.update:
                path = write_golden(result)
                print(f"  golden updated: {path}")
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(result.artifact_json())
                print(f"  artifact written: {args.output}")
        return 0

    if args.action == "check":
        exit_code = 0
        for name in sorted(specs):
            outcome = check_scenario(specs[name], workers=args.workers)
            status = "ok" if outcome.ok else "FAIL"
            drift = ("missing golden" if outcome.missing_golden
                     else "drift" if outcome.drift else "golden ok")
            print(f"{name}: {status} (slo={outcome.slo_verdict}, "
                  f"{drift})")
            if outcome.result is not None and (
                    not outcome.ok or outcome.slo_verdict != "pass"):
                _print_slo_report(outcome.result.slo_report())
            for line in outcome.diff:
                print(f"  {line}")
            if not outcome.ok:
                exit_code = 1
        return exit_code

    # diff: show golden-vs-run bytes without gating
    exit_code = 0
    for name in sorted(specs):
        result = run_scenario(specs[name], workers=args.workers)
        path = golden_path(name)
        if not path.exists():
            print(f"{name}: no golden artifact at {path}")
            exit_code = 1
            continue
        expected = path.read_text(encoding="utf-8")
        actual = result.artifact_json()
        if expected == actual:
            print(f"{name}: artifacts identical "
                  f"({len(actual.encode('utf-8'))} bytes)")
            continue
        print(f"{name}: artifacts differ")
        for line in diff_lines(expected, actual, f"{name}.json", limit=80):
            print(f"  {line}")
        exit_code = 1
    return exit_code


_COMMANDS: Dict[str, tuple] = {
    "list": (_cmd_list, "list available experiments"),
    "report": (_cmd_report, "generate the full reproduction report"),
    "emulate": (_cmd_emulate, "run the live-stack emulation"),
    "chaos": (_cmd_chaos, "session survival under injected churn"),
    "loadpoint": (_cmd_loadpoint,
                  "population-scale load point (cohort engine)"),
    "metrics": (_cmd_metrics,
                "deterministic metrics snapshot of an experiment"),
    "trace": (_cmd_trace,
              "sim-time span trace of the chaos experiment (JSONL)"),
    "lint": (_cmd_lint,
             "statelessness/determinism invariant checks (static)"),
    "scenario": (_cmd_scenario,
                 "scenario catalog: list | run | check | diff"),
    **{name: (_cmd_section, f"report section: {title}")
       for name, title in SECTION_TITLES.items()},
}


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0 (nan and inf are refused)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpaceCore (SIGCOMM 2022) reproduction harness")
    subparsers = parser.add_subparsers(dest="command")
    for name, (func, description) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=description)
        sub.set_defaults(func=func)
        if name == "report":
            sub.add_argument("--output", default=None)
            sub.add_argument("--full", action="store_true")
            sub.add_argument("--check", action="store_true",
                             help="compare with artifacts/report.md byte "
                                  "for byte; exit 1 with a diff on drift")
        if name == "emulate":
            sub.add_argument("--constellation", default="Starlink")
            sub.add_argument("--ues", type=_positive_int, default=15)
            sub.add_argument("--duration", type=_positive_float, default=600.0)
            sub.add_argument("--interval", type=_positive_float, default=106.9)
            sub.add_argument("--seed", type=int, default=0)
            sub.add_argument("--cohorts", type=_positive_int, default=None,
                             help="use the vectorized cohort engine "
                                  "with N cohorts (for large --ues)")
        if name == "chaos":
            sub.add_argument("--ues", type=_positive_int, default=24)
            sub.add_argument("--horizon", type=_positive_float, default=3600.0)
            sub.add_argument("--seed", type=int, default=0)
            sub.add_argument("--trials", type=_positive_int, default=1,
                             help="Monte Carlo trials with derived "
                                  "per-trial seeds")
            sub.add_argument("--workers", type=_positive_int, default=None,
                             help="shard trials across N worker "
                                  "processes (default: REPRO_WORKERS "
                                  "or serial)")
            sub.add_argument("--output", default=None)
        if name in ("metrics", "trace"):
            if name == "metrics":
                sub.add_argument("--experiment",
                                 choices=("chaos", "cohort"),
                                 default="chaos")
                sub.add_argument("--duration",
                                 type=_positive_float, default=600.0,
                                 help="cohort-sweep duration (seconds)")
                sub.add_argument("--cohorts", type=_positive_int, default=32)
            else:
                sub.add_argument("--head", type=int, default=10,
                                 help="spans to echo to stdout")
            sub.add_argument("--ues", type=_positive_int, default=24)
            sub.add_argument("--horizon", type=_positive_float, default=3600.0)
            sub.add_argument("--seed", type=int, default=0)
            sub.add_argument("--trials", type=_positive_int, default=1)
            sub.add_argument("--workers", type=_positive_int, default=None,
                             help="shard across N worker processes "
                                  "(default: REPRO_WORKERS or serial); "
                                  "the artifact is identical for any "
                                  "value")
            sub.add_argument("--output", default=None)
        if name == "lint":
            sub.add_argument("paths", nargs="*",
                             help="files/directories to analyze "
                                  "(default: the repro package)")
        if name == "scenario":
            sub.add_argument("action",
                             choices=("list", "run", "check", "diff"),
                             help="list the catalog, run scenarios, "
                                  "check against goldens + SLOs, or "
                                  "diff artifacts")
            sub.add_argument("names", nargs="*",
                             help="scenario names (default: whole "
                                  "catalog)")
            sub.add_argument("--all", action="store_true",
                             dest="all_scenarios",
                             help="address the whole catalog explicitly")
            sub.add_argument("--workers", type=_positive_int, default=None,
                             help="shard trials across N workers "
                                  "(default: REPRO_WORKERS or serial); "
                                  "artifacts are identical for any value")
            sub.add_argument("--update", action="store_true",
                             help="with run: rewrite golden artifacts")
            sub.add_argument("--output", default=None,
                             help="with run: also write the artifact "
                                  "here")
        if name == "loadpoint":
            sub.add_argument("--constellation", default="Starlink")
            sub.add_argument("--solution", default="SpaceCore")
            sub.add_argument("--ues", type=_positive_int, default=1_000_000)
            sub.add_argument("--duration",
                             type=_positive_float, default=3600.0)
            sub.add_argument("--cohorts", type=_positive_int, default=256)
            sub.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
