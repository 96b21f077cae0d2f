"""Packet-level discrete-event forwarding over the constellation.

The routing layer computes paths and sums propagation delays
statically; this module *plays them out* on the event engine: each
packet is an event chain hopping satellite to satellite, with per-hop
propagation plus serialisation, per-satellite FIFO egress queues, and
optional loss.  Its purpose is twofold:

* cross-validate the static delay arithmetic (an unloaded network must
  reproduce ``RouteResult.delay_s`` exactly up to serialisation), and
* expose queueing effects the static model cannot see (bursts into a
  single ISL).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry
from ..topology.batch_routing import BatchGeoRouter
from ..topology.grid import GridTopology
from .engine import Simulator


@dataclass
class PacketRecord:
    """Fate of one simulated packet."""

    packet_id: int
    src_sat: int
    sent_at_s: float
    delivered_at_s: Optional[float] = None
    dropped: bool = False
    hops: int = 0
    #: Mid-flight path recomputations after a dead link.
    reroutes: int = 0

    @property
    def latency_s(self) -> Optional[float]:
        """End-to-end latency, or None while in flight / dropped."""
        if self.delivered_at_s is None:
            return None
        return self.delivered_at_s - self.sent_at_s


class PacketSimulation:
    """Event-driven packet forwarding along Algorithm 1 paths.

    Each satellite has one egress queue per neighbour; a packet
    occupies the link for its serialisation time and arrives after the
    propagation delay.  Paths are pinned at send time (the topology
    barely moves over packet timescales).
    """

    def __init__(self, topology: GridTopology,
                 link_rate_mbps: float = 1000.0,
                 loss_probability: float = 0.0,
                 seed: int = 0,
                 max_reroutes: int = 0,
                 metrics: Optional[MetricsRegistry] = None):
        if link_rate_mbps <= 0:
            raise ValueError("link rate must be positive")
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        if max_reroutes < 0:
            raise ValueError("reroute cap must be non-negative")
        self.topology = topology
        #: The batch routing plane.  Single-packet sends delegate to
        #: its scalar reference walk (identical results); bulk
        #: injections (:meth:`send_batch`) route the whole wave in one
        #: vectorized call before any event is scheduled.
        self.router = BatchGeoRouter(topology, metrics=metrics)
        self.sim = Simulator()
        self.link_rate_mbps = link_rate_mbps
        self.loss_probability = loss_probability
        #: Mid-flight reroutes around dead links; 0 keeps the
        #: legacy drop-on-failure behaviour.
        self.max_reroutes = max_reroutes
        self._rng = random.Random(seed)
        #: Optional observability sink; per-link queueing histograms
        #: plus reroute/drop counters land here, and the
        #: event engine itself is instrumented through it.
        self.metrics = metrics
        if metrics is not None:
            self.sim.attach_metrics(metrics)
        #: When each directed link (a, b) next becomes free.
        self._link_free_at: Dict[Tuple[int, int], float] = {}
        self.records: List[PacketRecord] = []
        self._next_id = 0

    # -- sending ------------------------------------------------------------------

    def send(self, src_sat: int, dest_lat: float, dest_lon: float,
             size_bytes: int = 1500, at_s: float = 0.0,
             route_t: float = 0.0) -> PacketRecord:
        """Inject one packet; its delivery unfolds on the event queue.

        ``at_s`` earlier than the simulated clock is clamped to *now*
        for both the first hop and ``sent_at_s``: a packet cannot be
        injected into the past, and its reported latency must measure
        from when it actually entered the network, not from the stale
        request time.
        """
        route = self.router.route(src_sat, dest_lat, dest_lon, route_t)
        injected_at_s = max(at_s, self.sim.now)
        record = PacketRecord(self._next_id, src_sat, injected_at_s)
        self._next_id += 1
        self.records.append(record)
        if self.metrics is not None:
            self.metrics.counter("packet.sent").inc()
        if not route.delivered:
            self._drop(record, "unroutable")
            return record
        self.sim.schedule_at(injected_at_s, self._hop,
                             record, route.path, 0, size_bytes, route_t,
                             (dest_lat, dest_lon))
        return record

    def send_batch(self, src_sats, dest_lats, dest_lons,
                   size_bytes: int = 1500, at_s: float = 0.0,
                   route_t: float = 0.0) -> List[PacketRecord]:
        """Inject a wave of packets, routed in one vectorized call.

        Equivalent to calling :meth:`send` per packet (the batch plane
        is bit-identical to the scalar walk), but the path computation
        for the whole wave happens in a single ``route_batch`` before
        any event is scheduled -- at Monte Carlo sizes that is the
        difference between routing dominating the run and the event
        engine dominating it.
        """
        batch = self.router.route_batch(src_sats, dest_lats, dest_lons,
                                        route_t)
        injected_at_s = max(at_s, self.sim.now)
        records: List[PacketRecord] = []
        for i, src_sat in enumerate(src_sats):
            record = PacketRecord(self._next_id, int(src_sat),
                                  injected_at_s)
            self._next_id += 1
            self.records.append(record)
            records.append(record)
            if self.metrics is not None:
                self.metrics.counter("packet.sent").inc()
            if not batch.delivered[i]:
                self._drop(record, "unroutable")
                continue
            self.sim.schedule_at(
                injected_at_s, self._hop, record, batch.path(i), 0,
                size_bytes, route_t,
                (float(dest_lats[i]), float(dest_lons[i])))
        return records

    def _serialization_s(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / (self.link_rate_mbps * 1e6)

    def _drop(self, record: PacketRecord, reason: str) -> None:
        record.dropped = True
        if self.metrics is not None:
            self.metrics.counter("packet.dropped", reason=reason).inc()

    def _hop(self, record: PacketRecord, path: List[int], index: int,
             size_bytes: int, route_t: float,
             dest: Optional[Tuple[float, float]] = None) -> None:
        """Process the packet's arrival at ``path[index]``."""
        if index == len(path) - 1:
            record.delivered_at_s = self.sim.now
            if self.metrics is not None:
                self.metrics.counter("packet.delivered").inc()
                self.metrics.histogram("packet.latency_s").observe(
                    record.latency_s or 0.0)
                self.metrics.histogram(
                    "packet.hops",
                    buckets=DEFAULT_COUNT_BUCKETS).observe(record.hops)
            return
        current, nxt = path[index], path[index + 1]
        if not self.topology.isl_up(current, nxt):
            self._reroute_or_drop(record, current, size_bytes, route_t,
                                  dest)
            return
        if (self.loss_probability
                and self._rng.random() < self.loss_probability):
            self._drop(record, "random-loss")
            return
        link = (current, nxt)
        serialization = self._serialization_s(size_bytes)
        start = max(self.sim.now, self._link_free_at.get(link,
                                                         self.sim.now))
        if self.metrics is not None:
            self.metrics.histogram(
                "packet.queue_wait_s",
                link=f"{current}-{nxt}").observe(start - self.sim.now)
        self._link_free_at[link] = start + serialization
        propagation = self.topology.isl_delay_s(current, nxt, route_t)
        arrival = start + serialization + propagation
        # Hops are counted as frames leave links so the tally stays
        # correct across mid-flight reroutes.
        record.hops += 1
        self.sim.schedule_at(arrival, self._hop, record, path,
                             index + 1, size_bytes, route_t, dest)

    def _reroute_or_drop(self, record: PacketRecord, current: int,
                         size_bytes: int, route_t: float,
                         dest: Optional[Tuple[float, float]]) -> None:
        """Graceful degradation: recompute the path from here, bounded.

        With ``max_reroutes=0`` (the default) this preserves the
        legacy semantics -- a failed link mid-flight drops the packet.
        """
        if (dest is None or record.reroutes >= self.max_reroutes):
            self._drop(record, "link-failed")
            return
        record.reroutes += 1
        if self.metrics is not None:
            self.metrics.counter("packet.reroutes",
                                 at_sat=current).inc()
        route = self.router.route(current, dest[0], dest[1], route_t)
        if not route.delivered:
            self._drop(record, "no-alternate-route")
            return
        self.sim.schedule_at(self.sim.now, self._hop, record,
                             route.path, 0, size_bytes, route_t, dest)

    # -- running & results ------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Drain the event queue (deliver everything in flight)."""
        self.sim.run(until=until)

    def delivered(self) -> List[PacketRecord]:
        """All delivered packets."""
        return [r for r in self.records if r.delivered_at_s is not None]

    def latency_stats(self) -> Tuple[float, float, float]:
        """(min, mean, max) delivered latency in seconds."""
        latencies = [r.latency_s for r in self.delivered()]
        if not latencies:
            raise RuntimeError("no packets delivered yet")
        return (min(latencies), sum(latencies) / len(latencies),
                max(latencies))
