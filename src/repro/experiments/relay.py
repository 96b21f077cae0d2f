"""Geospatial relaying under ideal and J4 orbits (Fig. 18b).

Routes Beijing -> New York traffic through each constellation with
Algorithm 1, once under ideal two-body orbits and once under the J4
secular propagator, sampling departures across an orbital period.
The paper's claims to reproduce:

* Algorithm 1 guarantees delivery under both propagators;
* the delay distributions are nearly identical (runtime coordinates
  self-calibrate the perturbations);
* small constellations (Iridium) occasionally detour (>100 ms extra)
  with sub-percent probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..orbits.constellation import Constellation
from ..orbits.propagator import make_propagator
from ..topology.batch_routing import BatchGeoRouter
from ..topology.grid import GridTopology
from ..topology.routing import RELAY_MAX_HOPS

BEIJING = (math.radians(39.9), math.radians(116.4))
NEW_YORK = (math.radians(40.7), math.radians(-74.0))


@dataclass(frozen=True)
class RelayTrial:
    """One routed packet."""

    t_s: float
    propagator: str
    delivered: bool
    delay_ms: float
    hops: int


@dataclass(frozen=True)
class RelayComparison:
    """Ideal-vs-J4 summary for one constellation (a Fig. 18b panel).

    ``mean_delay_*_ms`` is ``None`` when that propagator delivered
    nothing -- never ``inf``, which ``json.dumps`` would emit as the
    non-standard ``Infinity`` token inside report artifacts.
    """

    constellation: str
    delivery_rate_ideal: float
    delivery_rate_j4: float
    mean_delay_ideal_ms: Optional[float]
    mean_delay_j4_ms: Optional[float]
    max_extra_delay_ms: float


def relay_times(samples: int) -> List[float]:
    """The exact departure epochs the relay pipeline samples over its
    5700 s horizon.

    The same ``5700.0 * i / samples`` floats the scalar loop computed,
    so the batched sweep keys identical snapshot/table cache entries
    and routes bit-identical packets.
    """
    return [5700.0 * i / samples for i in range(samples)]


def relay_router(constellation: Constellation, propagator_kind: str,
                 metrics: Optional[MetricsRegistry] = None
                 ) -> BatchGeoRouter:
    """A relay-pipeline batch router (both planes at RELAY_MAX_HOPS).

    The hop budget is threaded into the batch plane *and* its embedded
    scalar fallback through the shared constant: constructing the two
    planes with different budgets would silently change which long
    detours survive (the 256-vs-512 parity bug).
    """
    propagator = make_propagator(constellation, propagator_kind)
    return BatchGeoRouter(GridTopology(propagator, []),
                          max_hops=RELAY_MAX_HOPS, metrics=metrics)


def relay_trials(constellation: Constellation, propagator_kind: str,
                 src: Tuple[float, float] = BEIJING,
                 dst: Tuple[float, float] = NEW_YORK,
                 samples: int = 24) -> List[RelayTrial]:
    """Route ``samples`` packets spread over :func:`relay_times`.

    One packet departs per sample epoch; the whole horizon routes as a
    single :meth:`~repro.topology.batch_routing.BatchGeoRouter.
    route_sweep` (grouped by epoch, one next-hop table per epoch),
    bit-identical to the retired per-epoch scalar loop.
    """
    ts = relay_times(samples)
    src_sats, wave = relay_router(
        constellation, propagator_kind).sweep_trials(src, dst, ts)
    return [RelayTrial(t, propagator_kind, bool(wave.delivered[i]),
                       float(wave.delay_s[i]) * 1000.0,
                       int(wave.hops[i]))
            for i, t in enumerate(ts)]


def compare_ideal_vs_j4(constellation: Constellation,
                        samples: int = 24) -> RelayComparison:
    """The Fig. 18b panel for one constellation.

    Both propagator legs run batched -- the J4 leg reuses the same
    ``snapshot_for`` path as the ideal one (a ``ConstellationSnapshot``
    reads its rates off whichever propagator built it), so perturbed
    orbits route at array speed too.
    """
    ideal = relay_trials(constellation, "ideal", samples=samples)
    j4 = relay_trials(constellation, "j4", samples=samples)
    ideal_ok = [t for t in ideal if t.delivered]
    j4_ok = [t for t in j4 if t.delivered]

    def mean_delay(trials: List[RelayTrial]) -> Optional[float]:
        return (sum(t.delay_ms for t in trials) / len(trials)
                if trials else None)

    def delivery_rate(ok: List[RelayTrial],
                      all_trials: List[RelayTrial]) -> float:
        return len(ok) / len(all_trials) if all_trials else 0.0

    extra = 0.0
    for a, b in zip(ideal, j4):
        if a.delivered and b.delivered:
            extra = max(extra, b.delay_ms - a.delay_ms)
    return RelayComparison(
        constellation=constellation.name,
        delivery_rate_ideal=delivery_rate(ideal_ok, ideal),
        delivery_rate_j4=delivery_rate(j4_ok, j4),
        mean_delay_ideal_ms=mean_delay(ideal_ok),
        mean_delay_j4_ms=mean_delay(j4_ok),
        max_extra_delay_ms=extra,
    )


@dataclass(frozen=True)
class RelaySweepStats:
    """One epoch-sweep relay run plus its table-build accounting."""

    constellation: str
    propagator: str
    epochs: int
    routed: int
    delivered: int
    mean_delay_ms: Optional[float]
    mean_hops: float
    table_builds: int
    scalar_fallbacks: int


def relay_sweep_stats(constellation: Constellation,
                      samples: int = 24) -> RelaySweepStats:
    """Run the relay sweep once on ideal orbits and report what the
    plane did.

    The report's routing section uses this to show the epoch-sweep
    path working: exactly one next-hop table build per routed epoch
    (``routing.table_builds``) in the one sweep it runs.  The router
    keeps only its last table, so a repeated sweep would build them
    all again.
    """
    metrics = MetricsRegistry()
    router = relay_router(constellation, "ideal", metrics=metrics)
    ts = relay_times(samples)
    src_sats, wave = router.sweep_trials(BEIJING, NEW_YORK, ts)
    delivered = wave.delivered
    n_ok = int(delivered.sum())
    return RelaySweepStats(
        constellation=constellation.name,
        propagator="ideal",
        epochs=samples,
        routed=int((src_sats >= 0).sum()),
        delivered=n_ok,
        mean_delay_ms=(float(wave.delay_s[delivered].mean()) * 1000.0
                       if n_ok else None),
        mean_hops=float(wave.hops[delivered].mean()) if n_ok else 0.0,
        table_builds=int(metrics.counter_value("routing.table_builds")),
        scalar_fallbacks=int(wave.fallback.sum()),
    )


@dataclass(frozen=True)
class RoutingSweep:
    """Bulk Algorithm 1 statistics for one constellation epoch."""

    constellation: str
    packets: int
    delivered_fraction: float
    degraded_fraction: float
    mean_delay_ms: float
    mean_hops: float
    scalar_fallbacks: int


def routing_sweep(constellation: Constellation,
                  packets: int) -> RoutingSweep:
    """Route a Monte Carlo packet wave through the batch plane at t = 300 s.

    Sources are uniform over the constellation; destinations are
    uniform over the inclination band (the region Algorithm 1 serves
    directly).  One ``route_batch`` call answers the whole wave --
    this is the workload the routing benchmark times.
    """
    router = BatchGeoRouter(GridTopology(
        make_propagator(constellation, "ideal"), []))
    rng = np.random.default_rng(11)
    lat_band = math.radians(
        min(constellation.inclination_deg,
            180.0 - constellation.inclination_deg)) - 0.02
    src = rng.integers(0, constellation.total_satellites, packets)
    lats = rng.uniform(-lat_band, lat_band, packets)
    lons = rng.uniform(-math.pi, math.pi, packets)
    result = router.route_batch(src, lats, lons, 300.0)
    delivered = result.delivered
    n_ok = int(delivered.sum())
    delay_ms = (float(result.delay_s[delivered].mean() * 1000.0)
                if n_ok else float("inf"))
    hops = float(result.hops[delivered].mean()) if n_ok else 0.0
    return RoutingSweep(
        constellation=constellation.name,
        packets=packets,
        delivered_fraction=n_ok / packets,
        degraded_fraction=float(result.degraded.sum()) / packets,
        mean_delay_ms=delay_ms,
        mean_hops=hops,
        scalar_fallbacks=int(result.fallback.sum()),
    )


def batch_path_stretch(constellation: Constellation,
                       pairs: int = 64) -> float:
    """Mean delay stretch of Algorithm 1 over the Dijkstra optimum at
    t = 0.

    Each delivered packet is compared with Dijkstra's shortest path to
    the satellite the walk landed on -- the same destination, so every
    ratio is at least 1.  Both sides run batched: one ``route_batch``
    for the stateless plane, one multi-source ``route_many`` for the
    baseline.
    """
    from ..topology.routing import DijkstraRouter
    topology = GridTopology(make_propagator(constellation, "ideal"), [])
    rng = np.random.default_rng(11)
    lat_band = math.radians(
        min(constellation.inclination_deg,
            180.0 - constellation.inclination_deg)) - 0.05
    lats = rng.uniform(-lat_band, lat_band, pairs)
    lons = rng.uniform(-math.pi, math.pi, pairs)
    srcs = rng.integers(0, constellation.total_satellites, pairs)
    geo = BatchGeoRouter(topology).route_batch(srcs, lats, lons, 0.0)
    delivered = [int(i) for i in np.nonzero(geo.delivered)[0]]
    if not delivered:
        raise RuntimeError("Algorithm 1 delivered no packet")
    landings = [geo.path(i)[-1] for i in delivered]
    optimal = DijkstraRouter(topology).route_many(
        [int(srcs[i]) for i in delivered], landings, 0.0)
    stretches = [float(geo.delay_s[i]) / best.delay_s
                 if best.delay_s > 0 else 1.0
                 for i, best in zip(delivered, optimal)]
    return sum(stretches) / len(stretches)
