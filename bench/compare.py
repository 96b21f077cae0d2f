"""Compare two ledgers: ``python3 bench/compare.py A.json B.json``.

A is the base (the parent commit, or the first of two A/A sets); B is
judged against it.  Per workload and end-to-end metric this prints both
medians, the ratio with its base, the bound, and a verdict:

* ``ok``         -- B's median is no worse than A's by more than the bound;
* ``worse``      -- it is;
* ``unresolved`` -- the run-to-run spread (quartile distance over the
  median, of either side) is wider than the bound and the two sides'
  runs interleave, so the medians cannot be told apart.

Timings compare by the bounds; simulated outputs compare exactly.  The
exit code is non-zero on any ``worse``, on any rise in ``failed_share``,
and on any ``sim_digest`` or simulated-count difference (which fails
every op of that workload: a faster simulator must simulate the same
thing).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Sequence

if __package__ in (None, ""):   # run as a script: python3 bench/compare.py
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from bench import stats
else:
    from . import stats

OK, WORSE, UNRESOLVED = "ok", "worse", "unresolved"


def load_bounds(benchmark_json: str) -> Dict[str, Dict[str, Any]]:
    """``{metric: {"bound", "better", "unit"}}`` from ``BENCHMARK.json``."""
    with open(benchmark_json, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {row["name"]: {"bound": row["bound"], "better": row["better"],
                          "unit": row["unit"]}
            for row in spec["end_to_end"]}


def worse_by(base: float, other: float, better: str) -> float:
    """Share of ``base`` by which ``other`` is worse (negative: better)."""
    delta = other - base if better == "lower" else base - other
    return delta / base


def verdict(a_values: Sequence[float], b_values: Sequence[float],
            bound: float, better: str) -> str:
    spread = max(stats.quartile_spread(a_values),
                 stats.quartile_spread(b_values))
    interleave = not (max(a_values) < min(b_values)
                      or max(b_values) < min(a_values))
    if spread > bound and interleave:
        return UNRESOLVED
    if worse_by(stats.median(a_values), stats.median(b_values),
                better) > bound:
        return WORSE
    return OK


def compare_ledgers(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Print the table; return the list of failures (empty = pass)."""
    failures: List[str] = []
    bounds = a["bounds"]
    for name, base in a["workloads"].items():
        other = b["workloads"].get(name)
        if other is None or "skipped" in base or "skipped" in other:
            print(f"[{name}] skipped on one side: not compared")
            continue
        for metric, spec in bounds.items():
            a_values = base["end_to_end"][metric]["values"]
            b_values = other["end_to_end"][metric]["values"]
            a_med, b_med = stats.median(a_values), stats.median(b_values)
            outcome = verdict(a_values, b_values, spec["bound"],
                              spec["better"])
            print(f"[{name}] {metric}: A={a_med:.6g} B={b_med:.6g} "
                  f"{spec['unit']}  B/A={b_med / a_med:.4f} "
                  f"(base A={a_med:.6g})  bound={spec['bound']:.0%} "
                  f"{spec['better']}-is-better  -> {outcome}")
            if outcome == WORSE:
                failures.append(f"{name}/{metric} worse than the bound")
        print(f"[{name}] failed_share: A={base['failed_share']:.6g} "
              f"B={other['failed_share']:.6g}")
        if other["failed_share"] > base["failed_share"]:
            failures.append(f"{name}: failed_share rose")
        if (base["sim_digest"] != other["sim_digest"]
                or base["sim_counts"] != other["sim_counts"]):
            print(f"[{name}] simulated outputs differ: every op of this "
                  f"workload counts as failed\n"
                  f"    A {base['sim_digest']} {base['sim_counts']}\n"
                  f"    B {other['sim_digest']} {other['sim_counts']}")
            failures.append(f"{name}: sim_digest or simulated counts differ")
        else:
            print(f"[{name}] sim_digest and simulated counts identical")
    return failures


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    failures = compare_ledgers(*ledgers)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("compare: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
