"""Batch routing plane benchmark: Algorithm 1 at array speed.

Times four workloads on the 1584-satellite Starlink shell and emits
``BENCH_routing.json`` at the repo root:

* a 2k-packet scalar :class:`~repro.topology.routing.GeospatialRouter`
  sweep (the pre-batch baseline, one Python walk per packet);
* the same wave through
  :meth:`~repro.topology.batch_routing.BatchGeoRouter.route_batch`;
* a 1M-packet bulk wave through the batch plane (the Monte Carlo
  workload the plane exists for);
* an epoch sweep -- the Fig. 18b relay shape, per-packet epochs over
  an orbital period at the relay hop budget -- through
  :meth:`~repro.topology.batch_routing.BatchGeoRouter.route_sweep`
  against the scalar per-epoch relay loop it replaces.

Every batch result is asserted bit-identical to the scalar walk on a
sampled subset before any timing is trusted, so the speedup being
measured is the speedup of *the same answer*.

Acceptance floors: >= 20x over the scalar sweep, >= 1M routed
packets/s on the bulk wave, and >= 10x on the epoch sweep.  Without
the compiled walk kernel the batch plane *is* the scalar walk (there
is no second fast path), so there is nothing to time and the
benchmark skips.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.orbits import make_propagator, starlink
from repro.topology._walk_kernel import load_kernel
from repro.topology.batch_routing import BatchGeoRouter
from repro.topology.grid import GridTopology
from repro.topology.routing import RELAY_MAX_HOPS, GeospatialRouter

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_routing.json"

#: Smoke mode (CI shared runners): a 10x smaller bulk wave and no
#: absolute packets/s floor -- shared-runner clocks are not a perf
#: contract; the relative speedup floors still apply.
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

SWEEP_PACKETS = 2000
BULK_PACKETS = 100_000 if SMOKE else 1_000_000
ROUTING_T = 300.0
SEED = 11
EQUIVALENCE_SAMPLE = 500

#: Epoch-sweep row: the Fig. 18b relay shape scaled up -- packets
#: spread over an orbital period, routed per-epoch.
EPOCH_SWEEP_EPOCHS = 12
EPOCH_SWEEP_PER_EPOCH = 25 if SMOKE else 100
EPOCH_HORIZON_S = 5700.0


def _best_of(fn, repeats=3):
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _wave(constellation, packets, seed=SEED):
    rng = np.random.default_rng(seed)
    band = math.radians(min(constellation.inclination_deg,
                            180.0 - constellation.inclination_deg)) - 0.02
    src = rng.integers(0, constellation.total_satellites, packets)
    lats = rng.uniform(-band, band, packets)
    lons = rng.uniform(-math.pi, math.pi, packets)
    return src, lats, lons


def test_batch_routing_throughput():
    if load_kernel() is None:
        pytest.skip("no compiled walk kernel: the batch plane is the "
                    "scalar walk on this host")
    constellation = starlink()
    topology = GridTopology(make_propagator(constellation, "ideal"), [])
    scalar = GeospatialRouter(topology)
    batch = BatchGeoRouter(topology)
    results = {
        "constellation": constellation.name,
        "total_satellites": constellation.total_satellites,
        "kernel": True,
        "smoke": SMOKE,
    }

    # -- bit-exactness gate before any timing --------------------------------
    src, lats, lons = _wave(constellation, SWEEP_PACKETS)
    wave = batch.route_batch(src, lats, lons, ROUTING_T)
    stride = max(1, SWEEP_PACKETS // EQUIVALENCE_SAMPLE)
    for i in range(0, SWEEP_PACKETS, stride):
        expected = scalar.route(int(src[i]), float(lats[i]),
                                float(lons[i]), ROUTING_T)
        assert bool(wave.delivered[i]) == expected.delivered
        assert float(wave.delay_s[i]) == expected.delay_s
        assert wave.path(i) == expected.path

    # -- scalar sweep baseline ----------------------------------------------
    def scalar_sweep():
        return [scalar.route(int(s), float(la), float(lo), ROUTING_T)
                for s, la, lo in zip(src, lats, lons)]

    scalar_s, scalar_routes = _best_of(scalar_sweep, repeats=2)
    results["scalar_sweep"] = {
        "packets": SWEEP_PACKETS,
        "seconds": scalar_s,
        "packets_per_s": SWEEP_PACKETS / scalar_s,
        "delivered": sum(1 for r in scalar_routes if r.delivered),
    }

    # -- same wave through the batch plane -----------------------------------
    batch_s, sweep_result = _best_of(
        lambda: batch.route_batch(src, lats, lons, ROUTING_T))
    speedup = scalar_s / batch_s
    results["batch_sweep"] = {
        "packets": SWEEP_PACKETS,
        "seconds": batch_s,
        "packets_per_s": SWEEP_PACKETS / batch_s,
        "delivered": int(sweep_result.delivered.sum()),
        "speedup_vs_scalar": speedup,
    }

    # -- 1M-packet bulk wave --------------------------------------------------
    bulk_src, bulk_lats, bulk_lons = _wave(constellation, BULK_PACKETS)
    bulk_s, bulk_result = _best_of(
        lambda: batch.route_batch(bulk_src, bulk_lats, bulk_lons,
                                  ROUTING_T))
    bulk_rate = BULK_PACKETS / bulk_s
    results["bulk_wave"] = {
        "packets": BULK_PACKETS,
        "seconds": bulk_s,
        "packets_per_s": bulk_rate,
        "delivered": int(bulk_result.delivered.sum()),
        "degraded": int(bulk_result.degraded.sum()),
        "scalar_fallbacks": int(bulk_result.fallback.sum()),
        "mean_hops": float(bulk_result.hops.mean()),
    }

    # -- epoch sweep (the relay pipeline's shape) -----------------------------
    n_sweep = EPOCH_SWEEP_EPOCHS * EPOCH_SWEEP_PER_EPOCH
    sw_src, sw_lats, sw_lons = _wave(constellation, n_sweep, seed=SEED + 1)
    grid = np.array([EPOCH_HORIZON_S * i / EPOCH_SWEEP_EPOCHS
                     for i in range(EPOCH_SWEEP_EPOCHS)])
    # Interleaved epochs (packet i departs at grid[i % epochs]): the
    # sweep must group them itself, like real mixed-epoch workloads.
    sw_ts = grid[np.arange(n_sweep) % EPOCH_SWEEP_EPOCHS]
    relay_scalar = GeospatialRouter(topology, max_hops=RELAY_MAX_HOPS)
    sweep_metrics = MetricsRegistry()
    sweeper = BatchGeoRouter(topology, max_hops=RELAY_MAX_HOPS,
                             metrics=sweep_metrics)

    swept = sweeper.route_sweep(sw_src, sw_lats, sw_lons, sw_ts)
    stride = max(1, n_sweep // EQUIVALENCE_SAMPLE)
    for i in range(0, n_sweep, stride):
        expected = relay_scalar.route(int(sw_src[i]), float(sw_lats[i]),
                                      float(sw_lons[i]), float(sw_ts[i]))
        assert bool(swept.delivered[i]) == expected.delivered
        assert float(swept.delay_s[i]) == expected.delay_s
        assert swept.path(i) == expected.path

    def scalar_epoch_loop():
        return [relay_scalar.route(int(s), float(la), float(lo), float(t))
                for s, la, lo, t in zip(sw_src, sw_lats, sw_lons, sw_ts)]

    scalar_sweep_s, _ = _best_of(scalar_epoch_loop, repeats=2)
    sweep_s, _ = _best_of(
        lambda: sweeper.route_sweep(sw_src, sw_lats, sw_lons, sw_ts))
    sweep_speedup = scalar_sweep_s / sweep_s
    # Sweep-sized table LRU: the timing repeats above re-ran the whole
    # sweep, yet every epoch's table was built exactly once.
    table_builds = int(sweep_metrics.counter_value("routing.table_builds"))
    results["epoch_sweep"] = {
        "epochs": EPOCH_SWEEP_EPOCHS,
        "packets": n_sweep,
        "max_hops": RELAY_MAX_HOPS,
        "scalar_seconds": scalar_sweep_s,
        "seconds": sweep_s,
        "packets_per_s": n_sweep / sweep_s,
        "speedup_vs_scalar": sweep_speedup,
        "table_builds": table_builds,
    }

    BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))

    assert table_builds == EPOCH_SWEEP_EPOCHS

    # Acceptance floors for the plane's perf trajectory.
    assert speedup >= 20.0
    assert sweep_speedup >= 10.0
    if not SMOKE:
        assert bulk_rate >= 1_000_000.0
