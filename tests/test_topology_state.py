"""One topology state per ``(t, fault_epoch)``: ``GridTopology.state``.

Every per-epoch read -- both routing walks, the Dijkstra baseline,
the CSR, the graph, gateway attachment and ISL lengths -- goes through
the grid's one :class:`~repro.topology.grid.TopologyState` slot.  The
cache-key test drives it with generated interleavings of fault ops and
epochs; the ingress tests hold every per-epoch read to the routers'
epoch and destination contracts.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.orbits import IdealPropagator, starlink
from repro.orbits.snapshot import (
    grid_neighbor_table,
    snapshot_cache_info,
    snapshot_for,
)
from repro.topology.batch_routing import BatchGeoRouter
from repro.topology.grid import (
    DESTINATION_CONTRACT,
    EPOCH_CONTRACT,
    GridTopology,
)
from repro.topology.routing import SOURCE_CONTRACT, GeospatialRouter
from tests.test_snapshot_graph_differential import (
    EPOCHS,
    STATIONS,
    apply_ops,
    fault_cocktails,
    liveness_shells,
)

STARLINK = IdealPropagator(starlink())


def _state_arrays(state):
    """Every array a state hands out: the masks, then the walk's."""
    state.walk_pointers()
    return (state.sat_up, state.edge_up, *state._walk[0])


@settings(max_examples=40, deadline=None)
@given(constellation=liveness_shells(), data=st.data())
def test_one_state_per_t_and_fault_epoch(constellation, data):
    """The one cache-key test for the per-epoch state.

    Over a drawn interleaving of fault ops and epoch reads, each read
    routes a small wave: the same key returns the same object, whose
    masks are the fault log's queries; the masks are shared across
    ``t`` within a fault epoch and rebuilt exactly when it moves; the
    walk arrays are built once per state (``routing.table_builds``),
    every array is read-only, and a state that is no longer the slot's
    (one a wave could still hold) keeps its arrays as they were."""
    propagator = IdealPropagator(constellation)
    topology = GridTopology(propagator, STATIONS)
    metrics = MetricsRegistry()
    router = BatchGeoRouter(topology, metrics=metrics)
    total = constellation.total_satellites
    neighbors = grid_neighbor_table(constellation).tolist()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    src = rng.integers(0, total, 4)
    lats = rng.uniform(-1.0, 1.0, 4)
    lons = rng.uniform(-math.pi, math.pi, 4)
    steps = data.draw(st.lists(st.one_of(
        st.sampled_from(EPOCHS),
        fault_cocktails(total, len(STATIONS)).filter(bool)), max_size=12))
    held, builds, last = [], 0, None
    for step in [EPOCHS[0], *steps]:
        if not isinstance(step, float):
            apply_ops(topology, step)
            continue
        state = topology.state(step)
        assert topology.state(step) is state
        assert state.snapshot is snapshot_for(propagator, step)
        assert state.fault_epoch == topology.fault_epoch
        if last is not None:
            same = last.fault_epoch == state.fault_epoch
            assert (state.faults is last.faults) == same
            assert (state.sat_up is last.sat_up) == same
            assert (state.edge_up is last.edge_up) == same
        assert state.sat_up.tolist() == [topology.is_up(s)
                                         for s in range(total)]
        assert state.edge_up.tolist() == [
            [topology.isl_up(s, d) for d in row]
            for s, row in enumerate(neighbors)]
        assert state.faults.sats == topology.failed_satellites()
        if state.healthy:
            assert state.sat_up.all() and state.edge_up.all()
        builds += not state.walk_built
        batch = router.route_batch(src, lats, lons, step)
        assert metrics.counter_value("routing.table_builds") == builds
        pointers = state.walk_pointers()
        router.route_batch(src, lats, lons, step)
        assert metrics.counter_value("routing.table_builds") == builds
        assert state.walk_pointers() is pointers
        for i in range(len(batch)):
            assert batch.result(i) == router.scalar.route(
                int(src[i]), float(lats[i]), float(lons[i]), step)
        for array in _state_arrays(state):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = array.flat[0]
        held.append((state, [a.copy() for a in _state_arrays(state)]))
        last = state
    for state, copies in held:
        for array, copy in zip(_state_arrays(state), copies):
            assert np.array_equal(array, copy)


def _per_epoch_reads(topology, t):
    """The grid's per-epoch reads, each at epoch ``t``."""
    up = int(grid_neighbor_table(topology.constellation)[0, 0])
    return {
        "live_access_satellite":
            lambda: topology.live_access_satellite(0.1, 0.2, t),
        "gateway_access_satellites":
            lambda: topology.gateway_access_satellites(t),
        "delay_adjacency": lambda: topology.delay_adjacency(t),
        "isl_distance_km": lambda: topology.isl_distance_km(0, up, t),
        "snapshot_graph": lambda: topology.snapshot_graph(t),
    }


@pytest.mark.parametrize("read", [
    "live_access_satellite", "gateway_access_satellites",
    "delay_adjacency", "isl_distance_km", "snapshot_graph"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_per_epoch_reads_refuse_a_non_finite_epoch(read, t):
    """A NaN epoch used to read as "no access satellite", no gateways,
    NaN delays or a NaN length, and an infinite one died in the
    propagator with a bare ``math domain error``.  Every read now
    raises the routers' epoch contract before any snapshot read."""
    topology = GridTopology(STARLINK, STATIONS)
    before = snapshot_cache_info()[:2]
    with pytest.raises(ValueError, match=EPOCH_CONTRACT):
        _per_epoch_reads(topology, t)[read]()
    assert snapshot_cache_info()[:2] == before
    # The same reads at a finite epoch answer.
    assert _per_epoch_reads(topology, 0.0)[read]() is not None


@pytest.mark.parametrize("lat, lon", [
    pytest.param(10.0, 0.0, id="lat-10"),
    pytest.param(math.nan, 0.0, id="nan-lat"),
    pytest.param(0.0, math.inf, id="inf-lon"),
    pytest.param(-math.pi / 2 - 1e-9, 0.0, id="past-pole")])
def test_ground_point_attachment_refuses_a_point_off_the_globe(lat, lon):
    """``live_access_satellite(10.0, 0.0, 0.0)`` used to attach to
    satellite 921 and a NaN latitude to none; both raise the routers'
    destination contract now, before any snapshot read."""
    topology = GridTopology(STARLINK, STATIONS)
    before = snapshot_cache_info()[:2]
    with pytest.raises(ValueError, match=re.escape(DESTINATION_CONTRACT)):
        topology.live_access_satellite(lat, lon, 0.0)
    assert snapshot_cache_info()[:2] == before
    # The poles are inside the contract.
    assert topology.live_access_satellite(math.pi / 2, 7.0, 0.0) >= -1


def test_routers_check_source_then_destination_then_epoch():
    """With every argument bad, the error names the first contract."""
    router = GeospatialRouter(GridTopology(STARLINK, []))
    for src, lat, t, contract in (
            (-1, math.nan, math.nan, SOURCE_CONTRACT),
            (3, math.nan, math.nan, DESTINATION_CONTRACT),
            (3, 0.1, math.nan, EPOCH_CONTRACT)):
        with pytest.raises(ValueError, match=re.escape(contract)):
            router.route(src, lat, 0.2, t)
