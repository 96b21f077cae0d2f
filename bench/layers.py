"""Layer boundaries and the per-layer metrics computed from their spans.

Layers are the package names under ``src/repro``.  ``BOUNDARIES`` says
which callables the traced run wraps; ``PER_LAYER_METRICS`` is the one
list of per-layer metric names and units (``BENCHMARK.json`` repeats
it, and a test holds the two together).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from . import stats, trace
from .trace import Boundary, Span

_SNAPSHOT = "repro.orbits.snapshot"
_GRID = "repro.topology.grid"
_CHAOS_EXP = "repro.experiments.chaos_availability"
_ROBUST = "repro.core.robustness"
_SYSTEM = "repro.core.spacecore"
_PROCEDURES = "repro.fiveg.procedures"
_ENGINE = "repro.scenarios.engine"

BOUNDARIES: Tuple[Boundary, ...] = (
    # orbits: snapshot cache + the geometry reads the other layers make.
    Boundary("orbits", "orbits.snapshot_for", _SNAPSHOT, "snapshot_for"),
    Boundary("orbits", "orbits.snapshot_build", _SNAPSHOT, "__init__",
             "ConstellationSnapshot"),
    Boundary("orbits", "orbits.serving_satellite", _SNAPSHOT,
             "serving_satellite", "ConstellationSnapshot"),
    Boundary("orbits", "orbits.serving_satellites", _SNAPSHOT,
             "serving_satellites", "ConstellationSnapshot"),
    Boundary("orbits", "orbits.central_angles", _SNAPSHOT,
             "central_angles", "ConstellationSnapshot"),
    # topology: state rebuild, the two routing planes.
    Boundary("topology", "topology.snapshot_graph", _GRID,
             "snapshot_graph", "GridTopology"),
    Boundary("topology", "topology.station_access", _GRID,
             "station_access_satellite", "GridTopology"),
    # Reachability over the rebuilt graph (snapshot_graph + networkx
    # has_path) lives in the baseline model but is topology work.
    Boundary("topology", "topology.gateway_reachable", _CHAOS_EXP,
             "_gateway_reachable", "_StatefulBaseline"),
    Boundary("topology", "topology.route_batch",
             "repro.topology.batch_routing", "route_batch",
             "BatchGeoRouter"),
    Boundary("topology", "topology.scalar_route",
             "repro.topology.routing", "route", "GeospatialRouter"),
    # sim: the event loop.
    Boundary("sim", "sim.run", "repro.sim.engine", "run", "Simulator"),
    Boundary("sim", "sim.step", "repro.sim.engine", "step", "Simulator"),
    # faults: schedule arming and the fire path.
    Boundary("faults", "faults.arm", "repro.faults.chaos", "arm",
             "ChaosController"),
    Boundary("faults", "faults.fire", "repro.faults.chaos", "_fire",
             "ChaosController"),
    # experiments: one churn run and the baseline's reattach loops.
    Boundary("experiments", "experiments.run_chaos_availability",
             _CHAOS_EXP, "run_chaos_availability"),
    Boundary("experiments", "experiments.baseline_on_fault", _CHAOS_EXP,
             "on_fault", "_StatefulBaseline"),
    Boundary("experiments", "experiments.baseline_alive_fraction",
             _CHAOS_EXP, "alive_fraction", "_StatefulBaseline"),
    Boundary("experiments", "experiments.packet_probe", _CHAOS_EXP,
             "_run_packet_probe"),
    # core: the retried procedures and the attempts under them.
    Boundary("core", "core.register", _ROBUST, "register",
             "ResilientSpaceCore"),
    Boundary("core", "core.establish", _ROBUST, "establish_session",
             "ResilientSpaceCore"),
    Boundary("core", "core.handover", _ROBUST, "handover",
             "ResilientSpaceCore"),
    Boundary("core", "core.recover", _ROBUST, "recover",
             "ResilientSpaceCore"),
    Boundary("core", "core.on_fault", _ROBUST, "_on_fault",
             "ResilientSpaceCore"),
    Boundary("core", "core.attempt", _SYSTEM, "register",
             "SpaceCoreSystem"),
    Boundary("core", "core.attempt", _SYSTEM, "establish_session",
             "SpaceCoreSystem"),
    Boundary("core", "core.attempt", _SYSTEM, "handover",
             "SpaceCoreSystem"),
    Boundary("core", "core.attempt", _SYSTEM,
             "recover_from_satellite_failure", "SpaceCoreSystem"),
    Boundary("core", "core.establish_locally", "repro.core.satellite",
             "establish_session_locally", "SpaceCoreSatellite"),
    # crypto: signatures, key agreement, ABE, and the modexps under all.
    Boundary("crypto", "crypto.sign", "repro.crypto.signatures", "sign",
             "SigningKey"),
    Boundary("crypto", "crypto.verify", "repro.crypto.signatures",
             "verify", "VerifyKey"),
    Boundary("crypto", "crypto.sts", "repro.crypto.sts", "agree"),
    Boundary("crypto", "crypto.sts", "repro.crypto.sts", "__init__",
             "Initiator"),
    Boundary("crypto", "crypto.sts", "repro.crypto.sts", "finish",
             "Initiator"),
    Boundary("crypto", "crypto.sts", "repro.crypto.sts", "respond",
             "Responder"),
    Boundary("crypto", "crypto.abe", "repro.crypto.abe", "encrypt"),
    Boundary("crypto", "crypto.abe", "repro.crypto.abe", "decrypt"),
    Boundary("crypto", "crypto.modexp", "repro.crypto.group", "power",
             "SchnorrGroup"),
    Boundary("crypto", "crypto.modexp", "repro.crypto.group", "generate",
             "SchnorrGroup"),
    Boundary("crypto", "crypto.modexp", "repro.crypto.group",
             "is_element", "SchnorrGroup"),
    # fiveg: the procedure entry points core reaches.
    Boundary("fiveg", "fiveg.register_and_delegate", _PROCEDURES,
             "register_and_delegate", "SpaceCoreRegistrar"),
    Boundary("fiveg", "fiveg.build_state_bundle", _PROCEDURES,
             "build_state_bundle"),
    Boundary("fiveg", "fiveg.delegate_states", _PROCEDURES,
             "delegate_states"),
    # scenarios: spec -> schedule -> artifact.
    Boundary("scenarios", "scenarios.run_scenario", _ENGINE,
             "run_scenario"),
    Boundary("scenarios", "scenarios.trial", _ENGINE, "_scenario_trial"),
    Boundary("scenarios", "scenarios.build_schedule", _ENGINE,
             "build_schedule"),
    Boundary("scenarios", "scenarios.summary", _ENGINE, "summary",
             "ScenarioResult"),
    Boundary("scenarios", "scenarios.artifact_json", _ENGINE,
             "artifact_json", "ScenarioResult"),
    # runtime: every fan-out, serial or sharded.
    Boundary("runtime", "runtime.run_sharded", "repro.runtime.parallel",
             "run_sharded"),
)

#: (name, unit, better).  Times are host time of ONE traced job; counts
#: are simulated or structural and repeat exactly for a fixed seed.
PER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("orbits.snapshot_builds", "count", "lower"),
    ("orbits.snapshot_hit_share", "ratio", "higher"),
    ("orbits.self_s", "s", "lower"),
    ("topology.snapshot_graph_calls", "count", "lower"),
    ("topology.snapshot_graph_self_s", "s", "lower"),
    ("topology.route_batch_calls", "count", "lower"),
    ("topology.route_batch_self_s", "s", "lower"),
    ("topology.table_builds", "count", "lower"),
    ("topology.table_hit_share", "ratio", "higher"),
    ("topology.fallback_share", "ratio", "lower"),
    ("topology.scalar_route_calls", "count", "lower"),
    ("topology.scalar_route_self_s", "s", "lower"),
    ("topology.self_s", "s", "lower"),
    ("topology.kernel_build_s", "s", "lower"),
    ("topology.kernel_present", "count", "higher"),
    ("sim.events", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("faults.injected", "count", "lower"),
    ("faults.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("core.procedures", "count", "lower"),
    ("core.retries", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.register_p50_ms", "ms", "lower"),
    ("core.establish_p50_ms", "ms", "lower"),
    ("core.handover_p50_ms", "ms", "lower"),
    ("core.recover_p50_ms", "ms", "lower"),
    ("crypto.sign_calls", "count", "lower"),
    ("crypto.verify_calls", "count", "lower"),
    ("crypto.sts_calls", "count", "lower"),
    ("crypto.abe_calls", "count", "lower"),
    ("crypto.self_s", "s", "lower"),
    ("fiveg.self_s", "s", "lower"),
    ("scenarios.self_s", "s", "lower"),
    ("scenarios.golden_match_share", "ratio", "higher"),
    ("scenarios.artifact_bytes", "bytes", "lower"),
    ("runtime.fanouts", "count", "lower"),
    ("runtime.sharded_share", "ratio", "higher"),
    ("runtime.pools_created", "count", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("runtime.speedup", "x", "higher"),
    ("runtime.efficiency", "ratio", "higher"),
    ("runtime.small_fanout_ms", "ms", "lower"),
    ("bench.traced_job_s", "s", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.untraced_share", "ratio", "lower"),
    ("bench.generator_s", "s", "lower"),
)

PER_LAYER_UNITS: Dict[str, str] = {name: unit
                                   for name, unit, _ in PER_LAYER_METRICS}

_PROCEDURE_SPANS = ("core.register", "core.establish", "core.handover",
                    "core.recover")


def _p50_ms(spans: Sequence[Span], name: str) -> float:
    samples = trace.durations(spans, name)
    return stats.median(samples) * 1e3 if samples else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Everything the span list alone determines.

    The root span (``bench.job``) is the job; its self time is the part
    of the job no boundary covered.
    """
    by_layer = trace.self_time_by(spans, trace.LAYER)
    by_name = trace.self_time_by(spans, trace.NAME)
    counts = trace.counts_by_name(spans)
    children = trace.children_of(spans)
    retries = 0
    for index, span in enumerate(spans):
        if span[trace.NAME] in _PROCEDURE_SPANS:
            attempts = sum(1 for child in children.get(index, ())
                           if spans[child][trace.NAME] == "core.attempt")
            retries += max(0, attempts - 1)
    job_s = sum(trace.durations(spans, "bench.job"))
    metrics = {f"{layer}.self_s": by_layer.get(layer, 0.0)
               for layer in ("orbits", "topology", "sim", "faults",
                             "experiments", "core", "crypto", "fiveg",
                             "scenarios", "runtime")}
    metrics.update({
        "topology.snapshot_graph_calls": counts.get(
            "topology.snapshot_graph", 0),
        "topology.snapshot_graph_self_s": by_name.get(
            "topology.snapshot_graph", 0.0),
        "topology.route_batch_calls": counts.get("topology.route_batch", 0),
        "topology.route_batch_self_s": by_name.get(
            "topology.route_batch", 0.0),
        "topology.scalar_route_calls": counts.get(
            "topology.scalar_route", 0),
        "topology.scalar_route_self_s": by_name.get(
            "topology.scalar_route", 0.0),
        "sim.events": counts.get("sim.step", 0),
        "core.procedures": sum(counts.get(name, 0)
                               for name in _PROCEDURE_SPANS),
        "core.retries": retries,
        "core.register_p50_ms": _p50_ms(spans, "core.register"),
        "core.establish_p50_ms": _p50_ms(spans, "core.establish"),
        "core.handover_p50_ms": _p50_ms(spans, "core.handover"),
        "core.recover_p50_ms": _p50_ms(spans, "core.recover"),
        "crypto.sign_calls": counts.get("crypto.sign", 0),
        "crypto.verify_calls": counts.get("crypto.verify", 0),
        "crypto.sts_calls": counts.get("crypto.sts", 0),
        "crypto.abe_calls": counts.get("crypto.abe", 0),
        "runtime.fanouts": counts.get("runtime.run_sharded", 0),
        "bench.traced_job_s": job_s,
        "bench.untraced_share": _share(by_name.get("bench.job", 0.0),
                                       job_s),
    })
    return metrics


def counter_metrics(routing_counters: Dict[str, float],
                    snapshot_info: Tuple[int, int, int],
                    planner_decisions: Sequence[Dict[str, Any]],
                    pools_created: int, fanouts: int) -> Dict[str, float]:
    """Counts read at the same boundaries the spans time.

    ``routing_counters`` is the ``counters`` section of the
    benchmark-owned registry handed to ``BatchGeoRouter(metrics=...)``;
    ``snapshot_info`` is ``snapshot_cache_info()``.
    """
    hits, misses, _ = snapshot_info
    table_hits = routing_counters.get("routing.table_cache_hits", 0)
    table_misses = routing_counters.get("routing.table_cache_misses", 0)
    packets = routing_counters.get("routing.packets{plane=batch}", 0)
    sharded = sum(1 for decision in planner_decisions
                  if decision.get("mode") == "sharded")
    return {
        "orbits.snapshot_builds": misses,
        "orbits.snapshot_hit_share": _share(hits, hits + misses),
        "topology.table_builds": routing_counters.get(
            "routing.table_builds", 0),
        "topology.table_hit_share": _share(table_hits,
                                           table_hits + table_misses),
        "topology.fallback_share": _share(
            routing_counters.get("routing.scalar_fallbacks", 0), packets),
        "runtime.sharded_share": _share(sharded, fanouts),
        "runtime.pools_created": pools_created,
    }


def largest_layer(metrics: Dict[str, float]) -> str:
    """The ``*_self_s`` row with the most time (the ledger's headline)."""
    rows = {name: value for name, value in metrics.items()
            if name.endswith("self_s") and name != "topology.self_s"
            and not name.startswith("bench.")}
    # topology.self_s is the sum of the three topology rows plus the
    # reachability walk; compare its parts, not the sum, against the
    # other layers.
    return max(rows, key=lambda name: rows[name]) if rows else ""


def missing_metrics(metrics: Dict[str, float]) -> List[str]:
    return [name for name, _, _ in PER_LAYER_METRICS if name not in metrics]
