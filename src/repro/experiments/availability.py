"""Service availability under space-segment failures.

Extends S3.3's qualitative argument into a sweep: as satellites fail
(radiation, debris, geomagnetic storms) and links degrade, what
fraction of session establishments still completes?

Two effects compound for home-routed designs:

* **procedure fragility** -- every message of a long stateful flow
  must survive its links (exponential in flow length x path length);
* **reachability** -- the ISL path to a gateway must still exist.

SpaceCore's four local radio messages dodge both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..baselines.solutions import fiveg_ntn, spacecore
from ..constants import PER_LINK_LOSS
from ..faults.failures import crossing_loss, procedure_success_probability
from ..fiveg.messages import ProcedureKind
from ..orbits.constellation import Constellation
from ..orbits.groundstations import default_ground_stations
from ..orbits.propagator import IdealPropagator
from ..topology.grid import GridTopology


@dataclass(frozen=True)
class AvailabilityPoint:
    """Session-establishment availability at one failure level."""

    failure_fraction: float
    solution: str
    reachability: float          # fraction of sats that reach a gateway
    procedure_survival: float    # per-attempt message-level survival
    availability: float          # the product


def gateway_reachability(constellation: Constellation,
                         failure_fraction: float,
                         seed: int = 0,
                         t: float = 0.0) -> float:
    """Fraction of live satellites with an ISL path to some gateway."""
    from scipy.sparse.csgraph import connected_components
    if not 0.0 <= failure_fraction < 1.0:
        raise ValueError("failure fraction must be in [0, 1)")
    stations = default_ground_stations()
    topology = GridTopology(IdealPropagator(constellation), stations)
    rng = random.Random(seed)
    total = constellation.total_satellites
    for sat in rng.sample(range(total), int(total * failure_fraction)):
        topology.fail_satellite(sat)
    sources = [access for _, access
               in topology.gateway_access_satellites(t)]
    if not sources:
        return 0.0
    _, label = connected_components(topology.delay_adjacency(t),
                                    directed=False)
    # A failed satellite is an isolated node with a label no (live)
    # access satellite shares, so it is in neither count.
    live = total - len(topology.failed_satellites())
    return int(np.isin(label, label[sources]).sum()) / live


def availability_sweep(constellation: Constellation,
                       failure_fractions: Tuple[float, ...] = (
                           0.0, 0.025, 0.05, 0.1, 0.2),
                       seed: int = 0) -> List[AvailabilityPoint]:
    """Compare SpaceCore vs 5G NTN availability as failures mount.

    Every wireless hop loses :data:`~repro.constants.PER_LINK_LOSS` of
    messages; messages crossing to the ground ride the ISL path too
    (:func:`~repro.faults.failures.crossing_loss`).
    """
    points: List[AvailabilityPoint] = []
    for fraction in failure_fractions:
        reach = gateway_reachability(constellation, fraction, seed)
        for solution in (spacecore(), fiveg_ntn()):
            flow = solution.flow(ProcedureKind.SESSION_ESTABLISHMENT)
            crossing = solution.crossing_messages(flow)
            local = len(flow) - crossing
            # Local messages ride one radio hop; crossing messages ride
            # the radio hop plus the ISL path.
            survival = (procedure_success_probability(local, PER_LINK_LOSS)
                        * procedure_success_probability(
                            crossing, crossing_loss(PER_LINK_LOSS)))
            needs_gateway = crossing > 0
            availability = survival * (reach if needs_gateway else 1.0)
            points.append(AvailabilityPoint(
                failure_fraction=fraction,
                solution=solution.name,
                reachability=reach if needs_gateway else 1.0,
                procedure_survival=survival,
                availability=availability,
            ))
    return points
