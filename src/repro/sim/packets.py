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

    Each satellite has one egress queue per neighbour; a packet (1500
    bytes) occupies a 1 Gbps link for its serialisation time and
    arrives after the propagation delay.  Paths and delays are those
    of t = 0 (the topology barely moves over packet timescales).
    """

    def __init__(self, topology: GridTopology):
        self.topology = topology
        #: The batch routing plane: :meth:`send_batch` routes a whole
        #: wave in one vectorized call before any event is scheduled.
        self.router = BatchGeoRouter(topology)
        self.sim = Simulator()
        #: When each directed link (a, b) next becomes free.
        self._link_free_at: Dict[Tuple[int, int], float] = {}
        self.records: List[PacketRecord] = []
        self._next_id = 0

    # -- sending ------------------------------------------------------------------

    def send_batch(self, src_sats, dest_lats,
                   dest_lons) -> List[PacketRecord]:
        """Inject a wave of packets now, routed in one vectorized call.

        The path computation for the whole wave happens in a single
        ``route_batch`` (bit-identical to the scalar walk) before any
        event is scheduled -- at Monte Carlo sizes that is the
        difference between routing dominating the run and the event
        engine dominating it.  Each packet's ``sent_at_s`` is the
        simulated clock at injection, so its reported latency measures
        from when it actually entered the network.
        """
        batch = self.router.route_batch(src_sats, dest_lats, dest_lons,
                                        0.0)
        injected_at_s = self.sim.now
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
                                 batch.path(i), 0)
        return records

    def _hop(self, record: PacketRecord, path: List[int],
             index: int) -> None:
        """Process the packet's arrival at ``path[index]``."""
        if index == len(path) - 1:
            record.delivered_at_s = self.sim.now
            return
        current, nxt = path[index], path[index + 1]
        if not self.topology.isl_up(current, nxt):
            record.dropped = True
            return
        link = (current, nxt)
        serialization = 1500 * 8.0 / 1e9
        start = max(self.sim.now, self._link_free_at.get(link,
                                                         self.sim.now))
        self._link_free_at[link] = start + serialization
        propagation = self.topology.isl_delay_s(current, nxt, 0.0)
        arrival = start + serialization + propagation
        record.hops += 1
        self.sim.schedule_at(arrival, self._hop, record, path, index + 1)

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
