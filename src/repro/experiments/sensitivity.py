"""Sensitivity analysis: does the Table 4 conclusion survive the model?

The signaling-reduction factors rest on calibrated parameters -- mean
ISL hops to a gateway, the number of gateways, the active-UE fraction,
the satellite capacity.  A reviewer's first question is whether the
headline ("SpaceCore reduces satellite signaling by an order of
magnitude or more") is an artifact of one parameter choice.  This
module perturbs each parameter across a wide range and reports the
worst-case reduction factor observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.solutions import fiveg_ntn, spacecore
from ..constants import SATELLITE_CAPACITIES, SATELLITE_CAPACITY
from ..orbits.constellation import Constellation
from ..orbits.groundstations import default_ground_stations
from ..runtime.parallel import get_shared, run_sharded
from .signaling import signaling_load


@dataclass(frozen=True)
class SensitivityPoint:
    """One parameter perturbation and the resulting reduction."""

    parameter: str
    value: float
    reduction_vs_ntn: float


def _reduction(constellation: Constellation, capacity: int,
               stations, hops: float) -> float:
    sc = signaling_load(spacecore(), constellation, capacity, stations,
                        hops)
    ntn = signaling_load(fiveg_ntn(), constellation, capacity,
                         stations, hops)
    return (ntn.satellite_hotspot_per_s
            / sc.satellite_hotspot_per_s)


def _sensitivity_cell(work) -> SensitivityPoint:
    """One grid cell of the perturbation sweep, shardable.

    The constellation and every station-set variant ship through the
    shared registry once per worker; the cell carries only scalars and
    the key of the station set it perturbs.
    """
    parameter, value, capacity, stations_key, hops = work
    constellation = get_shared("sensitivity:constellation")
    stations = get_shared("sensitivity:stations")[stations_key]
    return SensitivityPoint(
        parameter, value,
        _reduction(constellation, capacity, list(stations), hops))


def sensitivity_sweep(constellation: Constellation,
                      workers: Optional[int] = None
                      ) -> List[SensitivityPoint]:
    """Perturb hops, gateway count, and capacity one at a time around
    :data:`~repro.constants.SATELLITE_CAPACITY` users a satellite.

    Each perturbation cell is independent, so the grid may shard
    across workers (it finishes inside the planner's serial budget, so
    in practice it does not); cell order (and every value) matches the
    serial walk.
    """
    station_sets: Dict[str, Tuple] = {
        "base": tuple(default_ground_stations()),
    }
    cells = []
    for hops in (2.0, 5.0, 10.0, 20.0):
        cells.append(("mean_hops", hops, SATELLITE_CAPACITY, "base", hops))
    for gateway_count in (4, 8, 16, 26):
        key = f"gateways:{gateway_count}"
        station_sets[key] = tuple(default_ground_stations(gateway_count))
        cells.append(("gateways", float(gateway_count), SATELLITE_CAPACITY,
                      key, 5.0))
    for capacity in SATELLITE_CAPACITIES:
        cells.append(("capacity", float(capacity), capacity, "base",
                      5.0))
    return run_sharded(
        _sensitivity_cell, cells, workers=workers,
        shared={"sensitivity:constellation": constellation,
                "sensitivity:stations": station_sets},
        label="sensitivity.grid")


def worst_case_reduction(points: Sequence[SensitivityPoint]) -> float:
    """The minimum reduction across every perturbation."""
    return min(p.reduction_vs_ntn for p in points)


# ---------------------------------------------------------------------------
# Constellation-size scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingPoint:
    """Reduction factor for one synthetic shell size."""

    total_satellites: int
    reduction_vs_ntn: float


def _scaling_cell(work) -> ScalingPoint:
    """One synthetic shell of the scaling curve, shardable.

    The shell's gateway-hop Dijkstra is the expensive part; it runs in
    the worker against the shard-local memo.
    """
    from .signaling import mean_hops_to_ground
    planes, slots = work
    stations = get_shared("scaling:stations")
    shell = Constellation("scaling", slots, planes, 550.0, 53.0,
                          min_elevation_deg=32.0)
    hops = mean_hops_to_ground(shell, list(stations))
    return ScalingPoint(shell.total_satellites,
                        _reduction(shell, SATELLITE_CAPACITY,
                                   list(stations), hops))


def constellation_scaling(workers: Optional[int] = None
                          ) -> List[ScalingPoint]:
    """SpaceCore's advantage vs shell size (synthetic 550 km, 53 deg
    Walker shells of 66 to 1584 satellites).

    The paper's trend: the denser the constellation, the harsher the
    stateful storm -- and the larger SpaceCore's win.  Shells left
    over when the planner's serial budget is spent shard across
    workers; each process builds a given shell's topology once.
    """
    stations = tuple(default_ground_stations())
    cells = [(6, 11), (18, 20), (36, 20), (72, 22)]
    return run_sharded(_scaling_cell, cells, workers=workers,
                       shared={"scaling:stations": stations},
                       label="sensitivity.scaling")
