"""Signaling-storm arithmetic: Fig. 10, Fig. 20, and Table 4.

For every (solution, constellation, capacity) point we compute:

* the **mean satellite** load: messages a typical serving satellite
  originates, terminates, or relays each second, including its fair
  share of multi-hop transit toward ground stations;
* the **hotspot satellite** load: the gateway-access satellite, which
  funnels its ground station's entire aggregate -- this is the
  bottleneck node the paper's per-satellite bars report;
* the **ground station** load: the aggregate of every active
  satellite's boundary-crossing messages, divided across gateways --
  the space-terrestrial asymmetry that makes the GS bars an order of
  magnitude taller (S3.1).

Event rates follow S3.1/S3.2: sessions every 106.9 s per user,
handovers/mobility registrations once per coverage pass, all scaled by
the satellite's user capacity {2K, 10K, 20K, 30K}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.base import Solution
from ..baselines.solutions import ALL_SOLUTIONS
from ..constants import SATELLITE_CAPACITIES, SATELLITE_CAPACITY
from ..fiveg.messages import ProcedureKind
from ..orbits.constellation import Constellation
from ..orbits.coverage import mean_dwell_time_s
from ..orbits.groundstations import GroundStation, default_ground_stations
from ..orbits.propagator import IdealPropagator
from ..runtime.cohort import DEFAULT_COHORTS, CohortStats, UECohortEngine
from ..runtime.memo import shard_memoized
from ..runtime.parallel import get_shared, run_sharded
from ..topology.grid import GridTopology

#: Fraction of satellites over populated land at any instant; ocean
#: and polar passes serve almost nobody (World Bank density, S6.2).
ACTIVE_SATELLITE_FRACTION = 0.45

#: Procedure groups for the Fig. 10 row split.
SESSION_KINDS = (ProcedureKind.SESSION_ESTABLISHMENT,
                 ProcedureKind.INITIAL_REGISTRATION)
MOBILITY_KINDS = (ProcedureKind.HANDOVER,
                  ProcedureKind.MOBILITY_REGISTRATION)


@dataclass(frozen=True)
class SignalingLoad:
    """Per-second signaling load at one design point."""

    solution: str
    constellation: str
    capacity: int
    satellite_mean_per_s: float
    satellite_hotspot_per_s: float
    ground_station_per_s: float
    by_procedure_satellite: Dict[ProcedureKind, float]
    by_procedure_ground: Dict[ProcedureKind, float]

    def satellite_rows(self) -> Tuple[float, float]:
        """(session row, mobility row) of Fig. 10's satellite panels."""
        session = sum(self.by_procedure_satellite[k]
                      for k in SESSION_KINDS)
        mobility = sum(self.by_procedure_satellite[k]
                       for k in MOBILITY_KINDS)
        return session, mobility

    def ground_rows(self) -> Tuple[float, float]:
        """(session row, mobility row) of the ground-station panels."""
        session = sum(self.by_procedure_ground[k] for k in SESSION_KINDS)
        mobility = sum(self.by_procedure_ground[k]
                       for k in MOBILITY_KINDS)
        return session, mobility


@shard_memoized
def _cached_mean_hops(constellation: Constellation,
                      stations: Tuple[GroundStation, ...]) -> float:
    # Keyed by the full (frozen) constellation rather than its name:
    # synthetic shells share a name but differ in geometry.
    from scipy.sparse.csgraph import dijkstra
    topology = GridTopology(IdealPropagator(constellation), list(stations))
    sources = [access for _, access
               in topology.gateway_access_satellites(0.0)]
    if not sources:
        raise RuntimeError("no gateway has satellite coverage at t = 0")
    hops = dijkstra(topology.delay_adjacency(0.0), unweighted=True,
                    indices=sources, min_only=True)
    # Hop counts are whole numbers, so the float mean is order-exact.
    return float(hops[np.isfinite(hops)].mean())


def mean_hops_to_ground(constellation: Constellation,
                        stations: Optional[Sequence[GroundStation]] = None
                        ) -> float:
    """Mean ISL hop count at t = 0 from a satellite to its nearest gateway.

    Multi-source BFS from every gateway's access satellite over the
    +Grid adjacency -- the multi-hop factor of the storm arithmetic ("up
    to 48" hops in the paper's polar worst case).  The search is
    memoized per process on (constellation, station set):
    ``reduction_factors`` and ``sweep`` ask for the same constellation
    many times, and sharded workers ask once per design point.
    """
    stations = (tuple(stations) if stations is not None
                else tuple(default_ground_stations()))
    return _cached_mean_hops(constellation, stations)


def _extra_local_messages(solution: Solution,
                          kind: ProcedureKind) -> float:
    """Sync/replica overheads beyond the base flow (per event)."""
    extra = 0.0
    if solution.sync_fanout and kind in (
            ProcedureKind.SESSION_ESTABLISHMENT,
            ProcedureKind.MOBILITY_REGISTRATION):
        # Each state change is broadcast to sync_fanout neighbours;
        # symmetric satellites both send and receive their share.
        extra += 2.0 * solution.sync_fanout
    return extra


def _extra_crossing_messages(solution: Solution,
                             kind: ProcedureKind) -> float:
    """DPCM keeps the device replica coherent with the home."""
    if solution.replica_update_messages and kind in (
            ProcedureKind.SESSION_ESTABLISHMENT,
            ProcedureKind.MOBILITY_REGISTRATION):
        return float(solution.replica_update_messages)
    return 0.0


def signaling_load(solution: Solution, constellation: Constellation,
                   capacity: int,
                   stations: Optional[Sequence[GroundStation]] = None,
                   hops: Optional[float] = None) -> SignalingLoad:
    """The full load computation for one design point."""
    stations = (list(stations) if stations is not None
                else default_ground_stations())
    if hops is None:
        hops = mean_hops_to_ground(constellation, stations)
    dwell = mean_dwell_time_s(constellation)
    rates = solution.procedure_rates_per_user(dwell)
    n_sats_active = constellation.total_satellites * \
        ACTIVE_SATELLITE_FRACTION
    gs_aggregation = n_sats_active / len(stations)

    sat_by_kind: Dict[ProcedureKind, float] = {}
    gs_by_kind: Dict[ProcedureKind, float] = {}
    sat_mean_total = 0.0
    gs_total = 0.0
    crossing_origin_total = 0.0
    for kind, per_user_rate in rates.items():
        event_rate = capacity * per_user_rate
        flow = solution.flow(kind)
        local = solution.satellite_messages(flow)
        crossing = (solution.crossing_messages(flow)
                    + _extra_crossing_messages(solution, kind))
        ground = (solution.ground_messages(flow)
                  + _extra_crossing_messages(solution, kind))
        local_extra = _extra_local_messages(solution, kind)
        sat_rate = event_rate * (local + local_extra + crossing * hops)
        gs_rate = event_rate * ground * gs_aggregation
        sat_by_kind[kind] = sat_rate
        gs_by_kind[kind] = gs_rate
        sat_mean_total += sat_rate
        gs_total += gs_rate
        crossing_origin_total += event_rate * crossing
    # The gateway-access satellite relays its GS's whole aggregate.
    hotspot = sat_mean_total + crossing_origin_total * gs_aggregation
    return SignalingLoad(
        solution=solution.name,
        constellation=constellation.name,
        capacity=capacity,
        satellite_mean_per_s=sat_mean_total,
        satellite_hotspot_per_s=hotspot,
        ground_station_per_s=gs_total,
        by_procedure_satellite=sat_by_kind,
        by_procedure_ground=gs_by_kind,
    )


def _sweep_point(work) -> SignalingLoad:
    """One (solution, constellation, capacity) design point, shardable.

    The constellations, solution specs, and station set ship through
    the shared registry (once per worker, not once per task); the work
    item is just three small indices.  The worker-side hop count comes
    from the shard-local memo, so a worker that sees several capacities
    of one constellation runs the Dijkstra once -- same arithmetic,
    same floats, as the serial loop.
    """
    constellation_index, solution_index, capacity = work
    constellation = get_shared("sweep:constellations")[constellation_index]
    item = get_shared("sweep:solutions")[solution_index]
    stations = get_shared("sweep:stations")
    solution = item() if callable(item) else item
    hops = mean_hops_to_ground(constellation, stations)
    return signaling_load(solution, constellation, capacity,
                          list(stations), hops)


def sweep(solutions: Iterable, constellations: Iterable[Constellation],
          capacities: Sequence[int] = SATELLITE_CAPACITIES,
          workers: Optional[int] = None) -> List[SignalingLoad]:
    """Cartesian sweep used by Fig. 10 (options) and Fig. 20 (solutions).

    ``solutions`` takes factories or instances.  With ``workers > 1``
    (or ``REPRO_WORKERS`` set) the design points run in-process for
    the planner's serial budget and only an unfinished rest ships to
    the process pool in chunks; results come back in the same nested
    (constellation, solution, capacity) order as the serial walk, with
    bit-identical values.  Parallel runs need picklable solution specs
    (module-level factories or instances, not lambdas).
    """
    stations = tuple(default_ground_stations())
    solutions = list(solutions)
    constellations = list(constellations)
    points = [(constellation_index, solution_index, capacity)
              for constellation_index in range(len(constellations))
              for solution_index in range(len(solutions))
              for capacity in capacities]
    return run_sharded(
        _sweep_point, points, workers=workers,
        shared={"sweep:constellations": constellations,
                "sweep:solutions": solutions,
                "sweep:stations": stations},
        label="signaling.sweep")


def cohort_load_point(solution, constellation: Constellation,
                      n_ues: int, duration_s: float, seed: int,
                      n_cohorts: int = DEFAULT_COHORTS) -> CohortStats:
    """One population-scale load point on the vectorized cohort engine.

    The executable counterpart of :func:`signaling_load` at full
    population: where the arithmetic multiplies closed-form rates,
    this samples the arrival processes per cohort and applies message
    costs in batch, so 1M UEs cost O(cohorts).  ``solution`` takes a
    factory or an instance.
    """
    solution = solution() if callable(solution) else solution
    engine = UECohortEngine(constellation, n_ues=n_ues, solution=solution,
                            seed=seed, n_cohorts=n_cohorts)
    return engine.run(duration_s)


def reduction_factors(constellation: Constellation,
                      stations: Optional[Sequence[GroundStation]] = None
                      ) -> Dict[str, float]:
    """Table 4: SpaceCore's satellite signaling reduction per baseline,
    at :data:`~repro.constants.SATELLITE_CAPACITY` users a satellite.

    Reduction = baseline hotspot load / SpaceCore hotspot load.
    """
    stations = (list(stations) if stations is not None
                else default_ground_stations())
    hops = mean_hops_to_ground(constellation, stations)
    loads = {
        factory().name: signaling_load(factory(), constellation,
                                       SATELLITE_CAPACITY, stations, hops)
        for factory in ALL_SOLUTIONS
    }
    spacecore_load = loads["SpaceCore"].satellite_hotspot_per_s
    return {
        name: load.satellite_hotspot_per_s / spacecore_load
        for name, load in loads.items() if name != "SpaceCore"
    }
