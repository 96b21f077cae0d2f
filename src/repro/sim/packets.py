"""Packet-level discrete-event forwarding over the constellation.

The routing layer computes paths and sums propagation delays
statically; this module *plays them out* on the event engine: each
packet is an event chain hopping satellite to satellite, with per-hop
propagation plus serialisation, per-satellite FIFO egress queues, and
drops on links that fail mid-flight.  Its purpose is twofold:

* cross-validate the static delay arithmetic (an unloaded network must
  reproduce ``RouteResult.delay_s`` exactly up to serialisation), and
* expose queueing effects the static model cannot see (bursts into a
  single ISL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
                 link_rate_mbps: float = 1000.0):
        if link_rate_mbps <= 0:
            raise ValueError("link rate must be positive")
        self.topology = topology
        #: The batch routing plane: :meth:`send_batch` routes a whole
        #: wave in one vectorized call before any event is scheduled.
        self.router = BatchGeoRouter(topology)
        self.sim = Simulator()
        self.link_rate_mbps = link_rate_mbps
        #: When each directed link (a, b) next becomes free.
        self._link_free_at: Dict[Tuple[int, int], float] = {}
        self.records: List[PacketRecord] = []
        self._next_id = 0

    # -- sending ------------------------------------------------------------------

    def send_batch(self, src_sats, dest_lats, dest_lons,
                   size_bytes: int = 1500, at_s: float = 0.0,
                   route_t: float = 0.0) -> List[PacketRecord]:
        """Inject a wave of packets, routed in one vectorized call.

        The path computation for the whole wave happens in a single
        ``route_batch`` (bit-identical to the scalar walk) before any
        event is scheduled -- at Monte Carlo sizes that is the
        difference between routing dominating the run and the event
        engine dominating it.  ``at_s`` earlier than the simulated
        clock is clamped to *now* for both the first hop and
        ``sent_at_s``: a packet cannot be injected into the past, and
        its reported latency measures from when it actually entered
        the network.
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
            if not batch.delivered[i]:
                record.dropped = True
                continue
            self.sim.schedule_at(injected_at_s, self._hop, record,
                                 batch.path(i), 0, size_bytes, route_t)
        return records

    def _serialization_s(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / (self.link_rate_mbps * 1e6)

    def _hop(self, record: PacketRecord, path: List[int], index: int,
             size_bytes: int, route_t: float) -> None:
        """Process the packet's arrival at ``path[index]``."""
        if index == len(path) - 1:
            record.delivered_at_s = self.sim.now
            return
        current, nxt = path[index], path[index + 1]
        if not self.topology.isl_up(current, nxt):
            record.dropped = True
            return
        link = (current, nxt)
        serialization = self._serialization_s(size_bytes)
        start = max(self.sim.now, self._link_free_at.get(link,
                                                         self.sim.now))
        self._link_free_at[link] = start + serialization
        propagation = self.topology.isl_delay_s(current, nxt, route_t)
        arrival = start + serialization + propagation
        record.hops += 1
        self.sim.schedule_at(arrival, self._hop, record, path,
                             index + 1, size_bytes, route_t)

    # -- running & results ------------------------------------------------------------

    def run(self) -> None:
        """Drain the event queue (deliver everything in flight)."""
        self.sim.run()

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
