"""``GridTopology.snapshot_graph`` against its scalar edge-by-edge oracle,
and the CSR shortest-path / reachability plane against networkx.

The graph is built as an array program (liveness mask + snapshot
positions, one ``add_edges_from``); the oracle here is the loop it
replaced -- ``is_up`` / ``isl_up`` per satellite, ``add_edge`` per
link -- so every ``has_path`` / ``connected_components`` / Dijkstra
consumer provably sees the same nodes, edges and adjacency order.
Edge lengths are pinned to ``hop_lengths_km()`` (the repo's one ISL
length), not to the oracle's old ``np.linalg.norm``.

Below that, networkx over ``snapshot_graph`` is itself the oracle:
``GridTopology.delay_adjacency`` and its ``scipy.sparse.csgraph``
consumers (``DijkstraRouter``, ``mean_hops_to_ground``,
``gateway_reachability``, ``load_to_gateways``) must give the numbers
the networkx code they replaced gave, degenerate shells included.
"""

import os
import pathlib
import random
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.constants import SPEED_OF_LIGHT_KM_S
from repro.experiments.availability import gateway_reachability
from repro.experiments.signaling import mean_hops_to_ground
from repro.orbits import (
    Constellation,
    IdealPropagator,
    default_ground_stations,
    iridium,
    starlink,
)
from repro.orbits.constellation import TABLE1
from repro.orbits.snapshot import grid_neighbor_table, snapshot_for
from repro.topology import DijkstraRouter, GridTopology, RouteResult
from repro.topology.traffic import (
    TrafficLoad,
    gravity_demand,
    load_to_gateways,
)

UP, RIGHT = 0, 3  # columns of grid_neighbor_table / hop_lengths_km

# One propagator per shell so the snapshot cache serves every example.
PROPAGATORS = {
    "starlink": IdealPropagator(starlink()),
    "iridium": IdealPropagator(iridium()),
    # 2 slots per plane: up == down, every intra-plane edge is added twice.
    "two-slot": IdealPropagator(Constellation(
        name="two-slot", num_planes=5, sats_per_plane=2,
        altitude_km=550.0, inclination_deg=53.0)),
    # 1 plane: left == right == the satellite itself (self-loops).
    "one-plane": IdealPropagator(Constellation(
        name="one-plane", num_planes=1, sats_per_plane=7,
        altitude_km=780.0, inclination_deg=86.4)),
    # 2 planes: left == right, every inter-plane edge is added twice.
    "two-plane": IdealPropagator(Constellation(
        name="two-plane", num_planes=2, sats_per_plane=6,
        altitude_km=1200.0, inclination_deg=87.9, raan_spread=np.pi)),
    # 2 x 2: both at once, every ISL is named by two wiring columns.
    "two-by-two": IdealPropagator(Constellation(
        name="two-by-two", num_planes=2, sats_per_plane=2,
        altitude_km=550.0, inclination_deg=53.0)),
    # 1 slot per plane: up == down == the satellite itself.
    "one-slot": IdealPropagator(Constellation(
        name="one-slot", num_planes=7, sats_per_plane=1,
        altitude_km=550.0, inclination_deg=53.0)),
}
STATIONS = default_ground_stations()
EPOCHS = (0.0, 615.0, 2871.5)


def oracle_graph(topology: GridTopology, t: float,
                 include_ground: bool) -> nx.Graph:
    """The pre-array ``snapshot_graph`` loop, lengths from the table."""
    graph = nx.Graph()
    c = topology.constellation
    hop_km = snapshot_for(topology.propagator, t).hop_lengths_km()
    for sat in range(c.total_satellites):
        if topology.is_up(sat):
            graph.add_node(sat)
    for sat in range(c.total_satellites):
        if not topology.is_up(sat):
            continue
        plane, slot = c.plane_slot(sat)
        up, right = c.sat_index(plane, slot + 1), c.sat_index(plane + 1, slot)
        for nbr, column in ((up, UP), (right, RIGHT)):
            if topology.isl_up(sat, nbr):
                dist = float(hop_km[sat, column])
                graph.add_edge(sat, nbr,
                               weight=dist / SPEED_OF_LIGHT_KM_S,
                               distance_km=dist)
    if include_ground:
        for _, gs in topology.live_ground_stations():
            access = topology.station_access_satellite(gs, t)
            if access >= 0:
                delay = topology.gsl_delay_s(access, gs, t)
                graph.add_edge(gs.name, access, weight=delay,
                               distance_km=delay * SPEED_OF_LIGHT_KM_S)
    return graph


def assert_same_graph(topology: GridTopology, t: float) -> None:
    for include_ground in (False, True):
        got = topology.snapshot_graph(t, include_ground=include_ground)
        want = oracle_graph(topology, t, include_ground)
        assert list(got.nodes) == list(want.nodes)
        assert list(got.edges) == list(want.edges)
        assert ({n: list(got.adj[n]) for n in got}
                == {n: list(want.adj[n]) for n in want})
        for a, b, data in got.edges(data=True):
            # Exact float equality, key order included.
            assert list(data.items()) == list(want[a][b].items())
            assert type(data["weight"]) is float
            assert type(data["distance_km"]) is float
            if isinstance(a, int) and isinstance(b, int):
                assert (data["weight"]
                        == data["distance_km"] / SPEED_OF_LIGHT_KM_S)
        assert all(type(n) in (int, str) for n in got.nodes)


@st.composite
def fault_cocktails(draw, total: int, stations: int):
    """A fail/recover op sequence drawn over a small hot set, so marks
    on dead endpoints and marks outliving a recovery are common."""
    hot = draw(st.lists(st.integers(0, total - 1), min_size=1,
                        max_size=6, unique=True))
    sat = st.sampled_from(hot)
    op = st.one_of(
        st.tuples(st.sampled_from(["fail_sat", "recover_sat"]), sat),
        st.tuples(st.sampled_from(["fail_isl", "recover_isl"]), sat,
                  st.integers(0, 3)),
        # A mark between two arbitrary satellites (maybe not neighbours,
        # maybe the same satellite) must be inert unless it names an ISL.
        st.tuples(st.just("fail_pair"), sat, st.integers(0, total - 1)),
        st.tuples(st.sampled_from(["fail_gs", "recover_gs"]),
                  st.integers(0, stations - 1)),
    )
    return draw(st.lists(op, max_size=24))


def apply_ops(topology: GridTopology, ops) -> None:
    neighbors = grid_neighbor_table(topology.constellation)
    for kind, *args in ops:
        if kind == "fail_sat":
            topology.fail_satellite(args[0])
        elif kind == "recover_sat":
            topology.recover_satellite(args[0])
        elif kind == "fail_isl":
            topology.fail_isl(args[0], int(neighbors[args[0], args[1]]))
        elif kind == "recover_isl":
            topology.recover_isl(args[0], int(neighbors[args[0], args[1]]))
        elif kind == "fail_pair":
            topology.fail_isl(args[0], args[1])
        elif kind == "fail_gs":
            topology.fail_ground_station(args[0])
        else:
            topology.recover_ground_station(args[0])


def faulted_topology(shell, data):
    """One shell under a drawn fault cocktail, and a drawn epoch."""
    propagator = PROPAGATORS[shell]
    topology = GridTopology(propagator, STATIONS)
    total = propagator.constellation.total_satellites
    apply_ops(topology, data.draw(fault_cocktails(total, len(STATIONS))))
    return topology, data.draw(st.sampled_from(EPOCHS))


@pytest.mark.parametrize("shell", sorted(PROPAGATORS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_snapshot_graph_matches_scalar_oracle(shell, data):
    assert_same_graph(*faulted_topology(shell, data))


@pytest.mark.parametrize("shell", sorted(PROPAGATORS))
def test_unfaulted_and_heavily_faulted_shells(shell):
    propagator = PROPAGATORS[shell]
    topology = GridTopology(propagator, STATIONS)
    assert_same_graph(topology, 0.0)
    total = propagator.constellation.total_satellites
    neighbors = grid_neighbor_table(propagator.constellation)
    for sat in range(0, total, 3):
        topology.fail_satellite(sat)
    for sat in range(1, total, 4):
        topology.fail_isl(sat, int(neighbors[sat, sat % 4]))
    topology.fail_ground_station(0)
    assert_same_graph(topology, 615.0)


def test_isl_mark_on_dead_endpoint_outlives_its_recovery():
    topology = GridTopology(PROPAGATORS["iridium"], STATIONS)
    up = int(grid_neighbor_table(topology.constellation)[5, UP])
    topology.fail_satellite(5)
    topology.fail_isl(5, up)
    assert_same_graph(topology, 0.0)
    topology.recover_satellite(5)
    graph = topology.snapshot_graph(0.0, include_ground=False)
    assert 5 in graph and not graph.has_edge(5, up)
    assert_same_graph(topology, 0.0)
    topology.recover_isl(5, up)
    assert topology.snapshot_graph(0.0, include_ground=False).has_edge(5, up)


@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("shell", sorted(PROPAGATORS))
def test_graph_weights_equal_csr_weights(shell, faulted):
    """``delay_adjacency`` carries every live ``snapshot_graph`` edge
    once per direction with the same weight bits -- also where the
    wiring names an ISL twice (2 planes, 2 slots), which a summing
    ``csr_matrix`` build doubled."""
    topology = GridTopology(PROPAGATORS[shell])
    if faulted:
        total = topology.constellation.total_satellites
        neighbors = grid_neighbor_table(topology.constellation)
        for sat in range(1, total, 5):
            topology.fail_satellite(sat)
        for sat in range(0, total, 7):
            topology.fail_isl(sat, int(neighbors[sat, sat % 4]))
    t = 615.0
    graph = topology.snapshot_graph(t, include_ground=False)
    matrix = topology.delay_adjacency(t)
    # Zero-length self-loops (1 plane / 1 slot) are not stored.
    loops = nx.number_of_selfloops(graph)
    assert matrix.nnz == 2 * (graph.number_of_edges() - loops)
    for a, b, weight in graph.edges(data="weight"):
        assert weight == matrix[a, b] == matrix[b, a]


@pytest.mark.parametrize("shell", sorted(PROPAGATORS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_dijkstra_router_matches_networkx(shell, data):
    """``route`` == one-pair ``route_many`` == networkx Dijkstra over
    ``snapshot_graph``: same verdict and ``delay_s`` bits, and the path
    is a live path whose lengths sum to the reported totals."""
    topology, t = faulted_topology(shell, data)
    total = topology.constellation.total_satellites
    # Dead and out-of-range endpoints are drawn on purpose.
    endpoint = st.one_of(
        st.integers(0, total - 1),
        st.sampled_from(sorted(topology.failed_satellites())
                        + [-1, total, total + 3]))
    pairs = data.draw(st.lists(st.tuples(endpoint, endpoint),
                               min_size=1, max_size=12))
    graph = topology.snapshot_graph(t, include_ground=False)
    router = DijkstraRouter(topology)
    batched = router.route_many([s for s, _ in pairs],
                                [d for _, d in pairs], t)
    for (s, d), many in zip(pairs, batched):
        got = router.route(s, d, t)
        assert got == many
        reachable = s in graph and d in graph and nx.has_path(graph, s, d)
        assert got.delivered == reachable
        if not reachable:
            assert got == RouteResult(False)
            continue
        assert got.delay_s == nx.shortest_path_length(graph, s, d, "weight")
        assert got.path[0] == s and got.path[-1] == d
        hops = list(zip(got.path, got.path[1:]))
        assert got.delay_s == sum(graph[a][b]["weight"] for a, b in hops)
        assert got.distance_km == sum(graph[a][b]["distance_km"]
                                      for a, b in hops)


@pytest.mark.parametrize("shell", sorted(PROPAGATORS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_csr_components_partition_live_satellites_like_networkx(shell, data):
    topology, t = faulted_topology(shell, data)
    graph = topology.snapshot_graph(t, include_ground=False)
    _, label = connected_components(topology.delay_adjacency(t),
                                    directed=False)
    by_label = {}
    for sat in graph.nodes:
        by_label.setdefault(int(label[sat]), set()).add(sat)
    assert (sorted(map(sorted, by_label.values()))
            == sorted(map(sorted, nx.connected_components(graph))))


def test_networkx_is_imported_only_where_a_graph_is_built():
    """The batch plane and the scenario catalog import without
    networkx: ``snapshot_graph`` and the chaos baseline's component
    labelling import it when they build a graph."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([path] if path else [])))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.topology.batch_routing, repro.scenarios; "
         "print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr[-3000:]
    assert probe.stdout.split() == ["False"]


@st.composite
def walker_shells(draw):
    """A Walker shell of a kind the Table 1 presets leave out: polar
    (i = 90 deg), retrograde (i > 90 deg) or star (RAANs over pi, with a
    seam where the first and last planes counter-rotate)."""
    kind = draw(st.sampled_from(["polar", "retrograde", "star"]))
    if kind == "polar":
        inclination = 90.0
    elif kind == "retrograde":
        inclination = draw(st.floats(91.0, 110.0))
    else:
        inclination = draw(st.floats(70.0, 90.0))
    return Constellation(
        name=f"drawn-{kind}",
        num_planes=draw(st.integers(1, 12)),
        sats_per_plane=draw(st.integers(1, 14)),
        altitude_km=draw(st.floats(450.0, 1500.0)),
        inclination_deg=inclination,
        raan_spread=np.pi if kind == "star" else 2 * np.pi,
        phasing_factor=draw(st.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(constellation=walker_shells(), data=st.data())
def test_csr_components_match_networkx_on_generated_shells(constellation,
                                                           data):
    """The CSR labelling ``connected_components(delay_adjacency(t))``
    partitions the live satellites exactly as ``nx.connected_components``
    over ``snapshot_graph`` does, on drawn polar, retrograde and star
    shells with satellite and ISL faults."""
    topology = GridTopology(IdealPropagator(constellation))
    total = constellation.total_satellites
    neighbors = grid_neighbor_table(constellation)
    for sat in data.draw(st.lists(st.integers(0, total - 1),
                                  max_size=total // 3, unique=True)):
        topology.fail_satellite(sat)
    for sat, column in data.draw(st.lists(
            st.tuples(st.integers(0, total - 1), st.integers(0, 3)),
            max_size=total)):
        topology.fail_isl(sat, int(neighbors[sat, column]))
    t = data.draw(st.floats(0.0, 2 * constellation.period_s))
    graph = topology.snapshot_graph(t, include_ground=False)
    _, label = connected_components(topology.delay_adjacency(t),
                                    directed=False)
    by_label = {}
    for sat in graph.nodes:
        by_label.setdefault(int(label[sat]), set()).add(sat)
    assert (sorted(map(sorted, by_label.values()))
            == sorted(map(sorted, nx.connected_components(graph))))



@st.composite
def liveness_shells(draw):
    """A drawn polar, retrograde or star shell, or one of the wirings
    that name an ISL twice (two slots per plane, two planes)."""
    return draw(st.one_of(walker_shells(), st.sampled_from([
        PROPAGATORS[name].constellation
        for name in ("two-slot", "two-plane")])))


@settings(max_examples=40, deadline=None)
@given(constellation=liveness_shells(), data=st.data())
def test_liveness_masks_are_the_fault_log_per_fault_epoch(constellation,
                                                          data):
    """The one cache-key test for liveness.  After every op of a drawn
    fail/recover sequence the masks equal the fault-log queries
    (``sat_up[s] == is_up(s)``, ``edge_up[s, d] == isl_up(s,
    neighbors[s, d])``) and are read-only.  They are rebuilt exactly
    when the fault epoch moved: no read after a fault returns the
    pre-fault array, and the pre-fault arrays, which next-hop tables
    hold by reference, keep the pre-fault state."""
    topology = GridTopology(IdealPropagator(constellation), STATIONS)
    total = constellation.total_satellites
    neighbors = grid_neighbor_table(constellation).tolist()
    epoch = topology.fault_epoch
    masks = (topology.satellite_liveness(), topology.edge_liveness())
    for op in data.draw(fault_cocktails(total, len(STATIONS))):
        kept = [mask.copy() for mask in masks]
        apply_ops(topology, [op])
        fresh = (topology.satellite_liveness(), topology.edge_liveness())
        for old, new, content in zip(masks, fresh, kept):
            assert (new is old) == (topology.fault_epoch == epoch)
            assert np.array_equal(old, content)
            assert not new.flags.writeable
            with pytest.raises(ValueError):
                new.flat[0] = not new.flat[0]
        sat_up, edge_up = fresh
        assert sat_up.tolist() == [topology.is_up(s) for s in range(total)]
        assert edge_up.tolist() == [
            [topology.isl_up(s, d) for d in row]
            for s, row in enumerate(neighbors)]
        epoch, masks = topology.fault_epoch, fresh


# -- the consumers, re-computed the way they were before they left networkx ---


def nx_mean_hops(constellation, t):
    topology = GridTopology(IdealPropagator(constellation), STATIONS)
    graph = topology.snapshot_graph(t, include_ground=False)
    sources = {sat for _, sat in topology.gateway_access_satellites(t)}
    hops = nx.multi_source_dijkstra_path_length(graph, sources, weight=None)
    return sum(hops.values()) / len(hops)


def nx_gateway_reachability(constellation, failure_fraction, seed, t):
    topology = GridTopology(IdealPropagator(constellation), STATIONS)
    total = constellation.total_satellites
    rng = random.Random(seed)
    for sat in rng.sample(range(total), int(total * failure_fraction)):
        topology.fail_satellite(sat)
    graph = topology.snapshot_graph(t, include_ground=False)
    sources = {sat for _, sat in topology.gateway_access_satellites(t)}
    reachable = set()
    for component in nx.connected_components(graph):
        if component & sources:
            reachable |= component
    return len(reachable) / graph.number_of_nodes()


def nx_link_load(topology, t, demands):
    graph = topology.snapshot_graph(t, include_ground=False)
    access_sats = [sat for _, sat in topology.gateway_access_satellites(t)]
    paths = {}
    load = TrafficLoad()
    for src, dst, demand in demands:
        for endpoint in (src, dst):
            if endpoint not in paths:
                paths[endpoint] = nx.single_source_dijkstra_path(
                    graph, endpoint, weight="weight")
            reached = [paths[endpoint][sat] for sat in access_sats
                       if sat in paths[endpoint]]
            load.add_path(min(reached, key=len), demand)
    return load.link_load


@pytest.mark.parametrize("name", sorted(TABLE1))
def test_consumers_keep_their_networkx_numbers(name):
    constellation = TABLE1[name]()
    for t in EPOCHS:
        assert (mean_hops_to_ground(constellation, STATIONS, t)
                == nx_mean_hops(constellation, t))
    for fraction in (0.0, 0.025, 0.05, 0.1, 0.2):
        for seed in (0, 1):
            assert (gateway_reachability(constellation, fraction, seed)
                    == nx_gateway_reachability(constellation, fraction,
                                               seed, 0.0))
    topology = GridTopology(IdealPropagator(constellation), STATIONS)
    demands = gravity_demand(topology, 0.0, top_satellites=16)
    got = load_to_gateways(topology, 0.0, demands).link_load
    assert list(got.items()) == list(nx_link_load(topology, 0.0,
                                                  demands).items())
