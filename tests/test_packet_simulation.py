"""Tests for the packet-level discrete-event forwarding."""

import math

import pytest

from repro.orbits import IdealPropagator, serving_satellite, starlink
from repro.sim.packets import PacketSimulation
from repro.topology import GeospatialRouter, GridTopology

BEIJING = (math.radians(39.9), math.radians(116.4))
NEW_YORK = (math.radians(40.7), math.radians(-74.0))
#: One-packet destination columns for ``send_batch``.
TO_BEIJING = ([BEIJING[0]], [BEIJING[1]])
TO_NEW_YORK = ([NEW_YORK[0]], [NEW_YORK[1]])


@pytest.fixture()
def topology():
    return GridTopology(IdealPropagator(starlink()), [])


@pytest.fixture()
def src_sat(topology):
    return serving_satellite(topology.propagator, 0.0, *BEIJING)


class TestDelivery:
    def test_single_packet_delivered(self, topology, src_sat):
        sim = PacketSimulation(topology)
        record = sim.send_batch([src_sat], *TO_NEW_YORK)[0]
        sim.run()
        assert record.delivered_at_s is not None
        assert record.hops > 5
        assert not record.dropped

    def test_matches_static_route_delay(self, topology, src_sat):
        """Cross-validation: DES latency == static propagation plus
        per-hop serialisation on an unloaded network."""
        sim = PacketSimulation(topology)
        static = GeospatialRouter(topology).route(src_sat, *NEW_YORK,
                                                  0.0)
        record = sim.send_batch([src_sat], *TO_NEW_YORK)[0]
        sim.run()
        serialization = static.hops * 1500 * 8 / 1e9
        assert record.latency_s == pytest.approx(
            static.delay_s + serialization, rel=1e-9)

    def test_local_delivery_instant(self, topology, src_sat):
        sim = PacketSimulation(topology)
        record = sim.send_batch([src_sat], *TO_BEIJING)[0]
        sim.run()
        assert record.latency_s == 0.0
        assert record.hops == 0

    def test_many_packets_statistics(self, topology, src_sat):
        sim = PacketSimulation(topology)
        for _ in range(20):
            sim.send_batch([src_sat], *TO_NEW_YORK)
        sim.run()
        low, mean, high = sim.latency_stats()
        assert 0.02 < low <= mean <= high < 0.2
        assert len(sim.delivered()) == 20


class TestQueueing:
    def test_burst_into_one_link_queues(self, topology, src_sat):
        """Simultaneous packets share the first ISL: later ones wait."""
        sim = PacketSimulation(topology)
        records = [sim.send_batch([src_sat], *TO_NEW_YORK)[0]
                   for _ in range(5)]
        sim.run()
        latencies = [r.latency_s for r in records]
        assert latencies == sorted(latencies)
        # Each 1500B packet serialises in 12 us at 1 Gbps; the 5th
        # packet waits 4 serialisation slots at the first hop alone,
        # and the queue stays far below a millisecond.
        spread = latencies[-1] - latencies[0]
        assert 4 * 12e-6 * (1 - 1e-9) <= spread < 0.001


class TestLossAndFailures:
    def test_mid_flight_link_failure_drops(self, topology, src_sat):
        sim = PacketSimulation(topology)
        static = GeospatialRouter(topology).route(src_sat, *NEW_YORK,
                                                  0.0)
        record = sim.send_batch([src_sat], *TO_NEW_YORK)[0]
        # Fail a link on the pinned path before the packet gets there.
        mid = len(static.path) // 2
        topology.fail_isl(static.path[mid], static.path[mid + 1])
        sim.run()
        assert record.dropped

    def test_unroutable_destination_dropped_immediately(self, topology,
                                                        src_sat):
        # Kill the source's entire neighbourhood: nothing can leave.
        for nbr in list(topology.isl_neighbors(src_sat)):
            topology.fail_isl(src_sat, nbr)
        sim = PacketSimulation(topology)
        record = sim.send_batch([src_sat], *TO_NEW_YORK)[0]
        sim.run()
        assert record.dropped

    def test_latency_stats_requires_deliveries(self, topology):
        sim = PacketSimulation(topology)
        with pytest.raises(RuntimeError):
            sim.latency_stats()


class TestInjectionClamping:
    def test_past_injection_does_not_inflate_latency(self, topology,
                                                     src_sat):
        """A wave sent after the clock advanced is stamped with the
        clock for *both* the first hop and ``sent_at_s``: a stale
        ``sent_at_s`` would inflate ``latency_s`` by however far the
        clock had already advanced -- poisoning ``latency_stats()``.
        """
        sim = PacketSimulation(topology)
        reference = sim.send_batch([src_sat], *TO_NEW_YORK)[0]
        sim.run()
        advanced_to = sim.sim.now
        assert advanced_to > 0.0

        late = sim.send_batch([src_sat], *TO_NEW_YORK)[0]
        sim.run()
        assert late.sent_at_s == advanced_to
        assert late.latency_s == pytest.approx(reference.latency_s)

    def test_past_injection_keeps_latency_stats_clean(self, topology,
                                                      src_sat):
        sim = PacketSimulation(topology)
        first = sim.send_batch([src_sat], *TO_NEW_YORK)[0]
        sim.run()
        sim.send_batch([src_sat], *TO_NEW_YORK)
        sim.run()
        lo, mean, hi = sim.latency_stats()
        assert hi == pytest.approx(first.latency_s)
        assert hi - lo < 1e-9


class TestBatchInjection:
    def test_wave_matches_one_packet_waves(self, topology):
        import numpy as np
        rng = np.random.default_rng(3)
        n = 64
        total = topology.constellation.total_satellites
        src = rng.integers(0, total, n)
        lats = rng.uniform(-0.9, 0.9, n)
        lons = rng.uniform(-math.pi, math.pi, n)

        batch_sim = PacketSimulation(topology)
        batch = batch_sim.send_batch(src, lats, lons)
        batch_sim.run()

        scalar_sim = PacketSimulation(topology)
        scalar = [scalar_sim.send_batch([int(s)], [float(la)], [float(lo)])[0]
                  for s, la, lo in zip(src, lats, lons)]
        scalar_sim.run()

        assert len(batch) == n
        for a, b in zip(batch, scalar):
            assert a.dropped == b.dropped
            assert a.delivered_at_s == b.delivered_at_s
            assert a.hops == b.hops
