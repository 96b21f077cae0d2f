"""Event-driven chaos engine: scheduled fault injection (S3.3, Fig. 13).

The offline fault models of :mod:`repro.faults.failures` describe
*distributions* -- how often satellites decay, how radio links burst.
This module turns them into **scheduled events** on the discrete-event
:class:`~repro.sim.engine.Simulator`, so failures fire *during*
simulated procedures and every layer above (routing, packet delivery,
the SpaceCore control plane) must survive them live:

* :class:`FaultSchedule` converts the satellite-decay hazard, Gilbert-
  Elliott link bursts, and :class:`~repro.faults.attacks.JammingAttack`
  windows into a deterministic, seed-reproducible event list;
* :class:`ChaosController` registers the schedule on a simulator,
  applies each event to a :class:`~repro.topology.grid.GridTopology`
  (bumping its ``fault_epoch``), keeps an append-only fault log, and
  notifies subscribers (e.g. the SpaceCore recovery machinery).

Everything is seeded: the same (schedule parameters, seed) pair yields
a bit-identical fault log on every run -- the property the chaos
acceptance tests pin down.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..constants import STARLINK_FAILURE_FRACTION
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..sim.engine import Simulator
from .attacks import JammingAttack
from .failures import GilbertElliottChannel

#: Seconds per month used to convert the Fig. 13a monthly hazard into
#: a continuous failure rate.
MONTH_S = 30.0 * 86400.0


class FaultKind(Enum):
    """What a scheduled fault event does to the topology."""

    SAT_FAIL = "sat-fail"
    SAT_RECOVER = "sat-recover"
    ISL_FAIL = "isl-fail"
    ISL_RECOVER = "isl-recover"
    JAM_START = "jam-start"
    JAM_STOP = "jam-stop"
    GS_FAIL = "gs-fail"
    GS_RECOVER = "gs-recover"
    COMPUTE_DEGRADE = "compute-degrade"
    COMPUTE_RESTORE = "compute-restore"


#: Kinds whose identity includes the capacity ``factor``.
_COMPUTE_KINDS = frozenset({FaultKind.COMPUTE_DEGRADE,
                            FaultKind.COMPUTE_RESTORE})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: apply ``kind`` to ``target`` at ``time``.

    ``target`` is ``(sat,)`` for satellite and compute events,
    ``(sat_a, sat_b)`` for link events, ``(station_index,)`` for
    ground-station events, and ``()`` for jamming (the attack object
    rides in ``attack``; the log key carries its geometry instead).
    ``factor`` is the remaining compute-capacity fraction of a
    ``COMPUTE_DEGRADE`` event (1.0 for every other kind).
    """

    time: float
    kind: FaultKind
    target: Tuple[int, ...] = ()
    attack: Optional[JammingAttack] = field(default=None, compare=False)
    factor: float = 1.0

    def key(self) -> Tuple:
        """A hashable, serialisable identity used for log comparison."""
        if self.attack is not None:
            geometry = (round(self.attack.lat, 9),
                        round(self.attack.lon, 9), self.attack.radius_km)
            return (self.time, self.kind.value, geometry)
        if self.kind in _COMPUTE_KINDS:
            return (self.time, self.kind.value, self.target,
                    round(self.factor, 9))
        return (self.time, self.kind.value, self.target)


def _link_seed(seed: int, sat_a: int, sat_b: int) -> int:
    """A stable per-link RNG seed (independent of hash randomisation)."""
    lo, hi = (sat_a, sat_b) if sat_a <= sat_b else (sat_b, sat_a)
    return (seed * 2_654_435_761 + lo * 1_000_003 + hi * 8_191) & 0x7FFFFFFF


class FaultSchedule:
    """A deterministic, seed-reproducible list of fault events.

    Builder methods translate each offline fault model into timed
    events; :meth:`events` returns them in firing order.  Building the
    same schedule twice with the same seeds yields identical events.
    """

    def __init__(self):
        self._events: List[FaultEvent] = []

    # -- direct entry -----------------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultSchedule":
        """Append one hand-placed event (chainable)."""
        if event.time < 0:
            raise ValueError("fault events cannot fire at negative time")
        self._events.append(event)
        return self

    # -- satellite decay (Fig. 13a made live) -----------------------------------

    def add_satellite_decay(self, satellites: Sequence[int],
                            horizon_s: float,
                            monthly_hazard: Optional[float] = None,
                            acceleration: float = 1.0,
                            repair_delay_s: Optional[float] = None,
                            seed: int = 0) -> "FaultSchedule":
        """Exponential per-satellite failure times from the decay hazard.

        ``acceleration`` compresses wall-clock so chaos runs over
        simulation-scale horizons still see failures (standard chaos-
        engineering practice); ``repair_delay_s`` schedules a matching
        recovery (None = the satellite stays dead).
        """
        if horizon_s < 0:
            raise ValueError("horizon must be non-negative")
        if acceleration <= 0:
            raise ValueError("acceleration must be positive")
        if monthly_hazard is None:
            monthly_hazard = STARLINK_FAILURE_FRACTION / 24.0
        if not 0.0 <= monthly_hazard <= 1.0:
            raise ValueError("monthly_hazard must be in [0, 1]")
        if monthly_hazard == 0.0:
            return self
        # Continuous-time rate whose one-month failure probability
        # matches the monthly hazard: p = 1 - exp(-rate * MONTH_S).
        rate = -math.log(1.0 - monthly_hazard) / MONTH_S * acceleration
        rng = random.Random(seed)
        for sat in satellites:
            t_fail = rng.expovariate(rate)
            if t_fail > horizon_s:
                continue
            self._events.append(FaultEvent(t_fail, FaultKind.SAT_FAIL,
                                           (int(sat),)))
            if repair_delay_s is not None:
                t_up = t_fail + repair_delay_s
                if t_up <= horizon_s:
                    self._events.append(FaultEvent(
                        t_up, FaultKind.SAT_RECOVER, (int(sat),)))
        return self

    # -- Gilbert-Elliott ISL bursts (Fig. 13b made live) ------------------------

    def add_link_bursts(self, links: Iterable[Tuple[int, int]],
                        horizon_s: float, step_s: float = 10.0,
                        p_good_to_bad: float = 0.01,
                        p_bad_to_good: float = 0.2,
                        seed: int = 0) -> "FaultSchedule":
        """Turn bad-state windows of a per-link GE chain into ISL outages.

        Each link gets an independent chain seeded from (seed, link),
        sampled every ``step_s``; entering the bad state downs the ISL,
        leaving it restores it (with a closing recovery at the horizon
        so no outage leaks past the run).
        """
        if horizon_s < 0:
            raise ValueError("horizon must be non-negative")
        if step_s <= 0:
            raise ValueError("step must be positive")
        for sat_a, sat_b in links:
            channel = GilbertElliottChannel(
                p_good_to_bad=p_good_to_bad, p_bad_to_good=p_bad_to_good,
                seed=_link_seed(seed, sat_a, sat_b))
            target = (int(sat_a), int(sat_b))
            in_bad = False
            steps = int(horizon_s / step_s)
            for i in range(1, steps + 1):
                channel.step()
                if channel.in_bad_state == in_bad:
                    continue
                in_bad = channel.in_bad_state
                kind = (FaultKind.ISL_FAIL if in_bad
                        else FaultKind.ISL_RECOVER)
                self._events.append(FaultEvent(i * step_s, kind, target))
            if in_bad:
                self._events.append(FaultEvent(
                    steps * step_s, FaultKind.ISL_RECOVER, target))
        return self

    # -- jamming windows (S3.3) -------------------------------------------------

    def add_jamming_window(self, attack: JammingAttack, start_s: float,
                           stop_s: float) -> "FaultSchedule":
        """One regional-jammer on/off window."""
        if start_s < 0 or stop_s < start_s:
            raise ValueError("jamming window must satisfy 0 <= start <= stop")
        self._events.append(FaultEvent(start_s, FaultKind.JAM_START,
                                       attack=attack))
        self._events.append(FaultEvent(stop_s, FaultKind.JAM_STOP,
                                       attack=attack))
        return self

    # -- handover storms (terminator-crossing churn) ----------------------------

    def add_handover_storm(self, satellites: Sequence[int],
                           start_s: float, stop_s: float,
                           repair_delay_s: float = 120.0
                           ) -> "FaultSchedule":
        """A staggered wave of short serving-satellite blackouts.

        Models the mass re-attach churn of a terminator crossing: every
        listed satellite drops once inside the window (evenly staggered
        in list order) and comes back ``repair_delay_s`` later, forcing
        its whole attached population through the recovery path nearly
        at once.
        """
        if start_s < 0 or stop_s <= start_s:
            raise ValueError("storm window must satisfy 0 <= start < stop")
        if repair_delay_s <= 0:
            raise ValueError("repair delay must be positive")
        sats = [int(sat) for sat in satellites]
        if not sats:
            return self
        spacing = (stop_s - start_s) / len(sats)
        for index, sat in enumerate(sats):
            t_fail = start_s + index * spacing
            self._events.append(FaultEvent(t_fail, FaultKind.SAT_FAIL,
                                           (sat,)))
            self._events.append(FaultEvent(t_fail + repair_delay_s,
                                           FaultKind.SAT_RECOVER, (sat,)))
        return self

    # -- regional ground-station outages ----------------------------------------

    def add_ground_station_outage(self, stations: Sequence[int],
                                  start_s: float, stop_s: float
                                  ) -> "FaultSchedule":
        """Down the listed ground stations (by index) for one window."""
        if start_s < 0 or stop_s <= start_s:
            raise ValueError("outage window must satisfy 0 <= start < stop")
        for station in stations:
            self._events.append(FaultEvent(start_s, FaultKind.GS_FAIL,
                                           (int(station),)))
            self._events.append(FaultEvent(stop_s, FaultKind.GS_RECOVER,
                                           (int(station),)))
        return self

    # -- onboard-compute degradation ("From Earth to Space") ---------------------

    def add_compute_degradation(self, satellites: Sequence[int],
                                start_s: float, stop_s: float,
                                factor: float) -> "FaultSchedule":
        """Throttle the listed satellites' compute for one window.

        ``factor`` is the remaining capacity fraction (0 < factor < 1):
        radiation upsets, thermal throttling, or a failed board leave
        the platform running at ``factor`` of its rated throughput, so
        procedure service times stretch by ``1 / factor`` and the
        signaling processor saturates at proportionally lower load.
        """
        if start_s < 0 or stop_s <= start_s:
            raise ValueError(
                "degradation window must satisfy 0 <= start < stop")
        if not 0.0 < factor < 1.0:
            raise ValueError("capacity factor must be in (0, 1)")
        for sat in satellites:
            self._events.append(FaultEvent(
                start_s, FaultKind.COMPUTE_DEGRADE, (int(sat),),
                factor=factor))
            self._events.append(FaultEvent(
                stop_s, FaultKind.COMPUTE_RESTORE, (int(sat),)))
        return self

    # -- reading ----------------------------------------------------------------

    def events(self) -> List[FaultEvent]:
        """All events in deterministic firing order."""
        return sorted(self._events,
                      key=lambda e: (e.time, e.kind.value, e.target))

    def __len__(self) -> int:
        return len(self._events)


class ChaosController:
    """Arms a :class:`FaultSchedule` on a simulator and applies it.

    Each fired event mutates the topology (which bumps its
    ``fault_epoch``, invalidating liveness caches such as the batch
    router's next-hop tables), lands in the append-only :attr:`log`,
    and is fanned out to every subscriber -- the hook the procedure-
    level recovery machinery uses to learn of satellite deaths the
    instant they happen.
    """

    def __init__(self, sim: Simulator, topology,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.topology = topology
        #: Optional observability: per-kind fault counters and one
        #: ``fault.<kind>`` trace event (at ``sim.now``) per applied
        #: event, alongside the append-only :attr:`log`.
        self.metrics = metrics
        self.tracer = tracer
        self.log: List[FaultEvent] = []
        #: Jamming windows opened minus closed in :attr:`log`.
        self._open_jams = 0
        self._subscribers: List[Callable[[FaultEvent], None]] = []
        self.events_armed = 0
        self._armed_keys: set = set()
        #: Live compute-capacity fractions per degraded satellite
        #: (absent = full capacity).
        self.compute_factors: Dict[int, float] = {}

    def subscribe(self, callback: Callable[[FaultEvent], None]) -> None:
        """Register a callback invoked after each event is applied."""
        self._subscribers.append(callback)

    def arm(self, schedule: FaultSchedule) -> int:
        """Register every *new* schedule event on the simulator.

        Returns the number of events newly armed.  Multiple schedules
        can be armed on one controller; firing order stays
        deterministic because the engine breaks time ties by scheduling
        order and ``FaultSchedule.events()`` orders ties by
        ``(time, kind, target)``.  Arming is idempotent by event key:
        overlapping or duplicate schedules (the same event armed twice,
        two schedules sharing a window) apply each distinct fault
        exactly once.
        """
        armed = 0
        for event in schedule.events():
            key = event.key()
            if key in self._armed_keys:
                continue
            self._armed_keys.add(key)
            self.sim.schedule_at(event.time, self._fire, event)
            armed += 1
        self.events_armed += armed
        return armed

    # -- event application --------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind is FaultKind.SAT_FAIL:
            self.topology.fail_satellite(event.target[0])
        elif kind is FaultKind.SAT_RECOVER:
            self.topology.recover_satellite(event.target[0])
        elif kind is FaultKind.ISL_FAIL:
            self.topology.fail_isl(*event.target)
        elif kind is FaultKind.ISL_RECOVER:
            self.topology.recover_isl(*event.target)
        elif kind is FaultKind.JAM_START:
            event.attack.apply(self.topology, self.sim.now)
            self._open_jams += 1
        elif kind is FaultKind.JAM_STOP:
            event.attack.lift(self.topology, self.sim.now)
            self._open_jams -= 1
        elif kind is FaultKind.GS_FAIL:
            self.topology.fail_ground_station(event.target[0])
        elif kind is FaultKind.GS_RECOVER:
            self.topology.recover_ground_station(event.target[0])
        elif kind is FaultKind.COMPUTE_DEGRADE:
            self.compute_factors[event.target[0]] = event.factor
        elif kind is FaultKind.COMPUTE_RESTORE:
            self.compute_factors.pop(event.target[0], None)
        self.log.append(event)
        if self.metrics is not None:
            self.metrics.counter("chaos.faults", kind=kind.value).inc()
        if self.tracer is not None:
            self.tracer.event(f"fault.{kind.value}",
                              target=list(event.target))
        for subscriber in self._subscribers:
            subscriber(event)

    # -- reading --------------------------------------------------------------------

    def log_keys(self) -> List[Tuple]:
        """Serialisable identities of every applied event, in order.

        Two runs of the same seeded scenario must produce identical
        lists -- the bit-reproducibility contract.
        """
        return [event.key() for event in self.log]

    def jamming_active(self) -> bool:
        """Whether any armed jamming window is currently open."""
        return self._open_jams > 0

    def min_compute_factor(self) -> float:
        """The worst live compute derating (1.0 = nothing degraded)."""
        if not self.compute_factors:
            return 1.0
        return min(self.compute_factors.values())

    def compute_factor_at(self, t: float) -> float:
        """The worst compute derating active at sim-time ``t``.

        Replays the applied-event log, so it is usable after the run
        has finished (the live :attr:`compute_factors` map only shows
        the final state).
        """
        active: Dict[int, float] = {}
        for event in self.log:
            if event.time > t:
                break
            if event.kind is FaultKind.COMPUTE_DEGRADE:
                active[event.target[0]] = event.factor
            elif event.kind is FaultKind.COMPUTE_RESTORE:
                active.pop(event.target[0], None)
        if not active:
            return 1.0
        return min(active.values())
