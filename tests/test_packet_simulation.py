"""Tests for the packet-level discrete-event forwarding."""

import math

import pytest

from repro.orbits import IdealPropagator, serving_satellite, starlink
from repro.sim.packets import PacketSimulation
from repro.topology import GeospatialRouter, GridTopology

BEIJING = (math.radians(39.9), math.radians(116.4))
NEW_YORK = (math.radians(40.7), math.radians(-74.0))


@pytest.fixture()
def topology():
    return GridTopology(IdealPropagator(starlink()), [])


@pytest.fixture()
def src_sat(topology):
    return serving_satellite(topology.propagator, 0.0, *BEIJING)


class TestDelivery:
    def test_single_packet_delivered(self, topology, src_sat):
        sim = PacketSimulation(topology)
        record = sim.send(src_sat, *NEW_YORK)
        sim.run()
        assert record.delivered_at_s is not None
        assert record.hops > 5
        assert not record.dropped

    def test_matches_static_route_delay(self, topology, src_sat):
        """Cross-validation: DES latency == static propagation plus
        per-hop serialisation on an unloaded network."""
        sim = PacketSimulation(topology, link_rate_mbps=1000.0)
        static = GeospatialRouter(topology).route(src_sat, *NEW_YORK,
                                                  0.0)
        record = sim.send(src_sat, *NEW_YORK, size_bytes=1500)
        sim.run()
        serialization = static.hops * 1500 * 8 / 1e9
        assert record.latency_s == pytest.approx(
            static.delay_s + serialization, rel=1e-9)

    def test_local_delivery_instant(self, topology, src_sat):
        sim = PacketSimulation(topology)
        record = sim.send(src_sat, *BEIJING)
        sim.run()
        assert record.latency_s == 0.0
        assert record.hops == 0

    def test_many_packets_statistics(self, topology, src_sat):
        sim = PacketSimulation(topology)
        for i in range(20):
            sim.send(src_sat, *NEW_YORK, at_s=i * 0.01)
        sim.run()
        low, mean, high = sim.latency_stats()
        assert 0.02 < low <= mean <= high < 0.2
        assert len(sim.delivered()) == 20


class TestQueueing:
    def test_burst_into_one_link_queues(self, topology, src_sat):
        """Simultaneous packets share the first ISL: later ones wait."""
        sim = PacketSimulation(topology, link_rate_mbps=1.0)  # slow
        records = [sim.send(src_sat, *NEW_YORK, size_bytes=1500,
                            at_s=0.0) for _ in range(5)]
        sim.run()
        latencies = [r.latency_s for r in records]
        assert latencies == sorted(latencies)
        # Each 1500B packet serialises in 12 ms at 1 Mbps; the 5th
        # packet waits 4 serialisation slots at the first hop alone.
        assert latencies[-1] - latencies[0] > 0.04

    def test_fast_links_no_spread(self, topology, src_sat):
        sim = PacketSimulation(topology, link_rate_mbps=10_000.0)
        records = [sim.send(src_sat, *NEW_YORK, at_s=0.0)
                   for _ in range(5)]
        sim.run()
        spread = (max(r.latency_s for r in records)
                  - min(r.latency_s for r in records))
        assert spread < 0.001


class TestLossAndFailures:
    def test_random_loss_drops_some(self, topology, src_sat):
        sim = PacketSimulation(topology, loss_probability=0.2, seed=1)
        for _ in range(40):
            sim.send(src_sat, *NEW_YORK)
        sim.run()
        assert any(r.dropped for r in sim.records)
        assert len(sim.delivered()) > 0

    def test_mid_flight_link_failure_drops(self, topology, src_sat):
        sim = PacketSimulation(topology)
        static = GeospatialRouter(topology).route(src_sat, *NEW_YORK,
                                                  0.0)
        record = sim.send(src_sat, *NEW_YORK)
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
        record = sim.send(src_sat, *NEW_YORK)
        sim.run()
        assert record.dropped

    def test_validation(self, topology):
        with pytest.raises(ValueError):
            PacketSimulation(topology, link_rate_mbps=0.0)
        with pytest.raises(ValueError):
            PacketSimulation(topology, loss_probability=1.0)

    def test_latency_stats_requires_deliveries(self, topology):
        sim = PacketSimulation(topology)
        with pytest.raises(RuntimeError):
            sim.latency_stats()


class TestInjectionClamping:
    def test_past_injection_does_not_inflate_latency(self, topology,
                                                     src_sat):
        """ISSUE 5 regression: ``at_s`` in the simulated past is
        clamped for *both* the first hop and ``sent_at_s``.

        Before the fix the first hop was clamped to ``sim.now`` but
        ``sent_at_s`` kept the stale request time, so the packet
        reported ``latency_s`` inflated by however far the clock had
        already advanced -- poisoning ``latency_stats()``.
        """
        sim = PacketSimulation(topology)
        reference = sim.send(src_sat, *NEW_YORK, at_s=0.0)
        sim.run()
        advanced_to = sim.sim.now
        assert advanced_to > 0.0

        late = sim.send(src_sat, *NEW_YORK, at_s=0.0)
        sim.run()
        assert late.sent_at_s == advanced_to
        assert late.latency_s == pytest.approx(reference.latency_s)

    def test_past_injection_keeps_latency_stats_clean(self, topology,
                                                      src_sat):
        sim = PacketSimulation(topology)
        first = sim.send(src_sat, *NEW_YORK)
        sim.run()
        sim.send(src_sat, *NEW_YORK, at_s=0.0)
        sim.run()
        lo, mean, hi = sim.latency_stats()
        assert hi == pytest.approx(first.latency_s)
        assert hi - lo < 1e-9

    def test_future_injection_waits_and_counts_from_request(
            self, topology, src_sat):
        sim = PacketSimulation(topology)
        record = sim.send(src_sat, *NEW_YORK, at_s=5.0)
        sim.run()
        assert record.sent_at_s == 5.0
        assert record.delivered_at_s is not None
        assert record.delivered_at_s >= 5.0


class TestBatchInjection:
    def test_send_batch_matches_per_packet_sends(self, topology):
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
        scalar = [scalar_sim.send(int(s), float(la), float(lo))
                  for s, la, lo in zip(src, lats, lons)]
        scalar_sim.run()

        assert len(batch) == n
        for a, b in zip(batch, scalar):
            assert a.dropped == b.dropped
            assert a.delivered_at_s == b.delivered_at_s
            assert a.hops == b.hops

    def test_send_batch_counts_metrics(self, topology):
        from repro.obs.metrics import MetricsRegistry
        metrics = MetricsRegistry()
        sim = PacketSimulation(topology, metrics=metrics)
        sim.send_batch([0, 1, 2], [0.1, 0.2, 0.3], [0.0, 0.1, 0.2])
        sim.run()
        counters = metrics.snapshot()["counters"]
        assert counters["packet.sent"] == 3
        assert counters["routing.batches"] == 1
