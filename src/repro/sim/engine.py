"""A small deterministic discrete-event simulation engine.

Drives the packet-level and signaling-level experiments.  Events are
ordered by (time, sequence) so same-time events fire in scheduling
order, which keeps every run bit-reproducible for a given seed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry


@dataclass(order=True)
class _QueuedEvent:
    time: float
    seq: int
    handle: "EventHandle" = field(compare=False)


class EventHandle:
    """A scheduled event; cancellable until it fires."""

    __slots__ = ("callback", "args", "cancelled", "time", "fired", "_sim")

    def __init__(self, time: float, callback: Callable, args: Tuple,
                 sim: "Optional[Simulator]" = None):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None and self._sim._metrics is not None:
            self._sim._metrics.counter("sim.events_cancelled").inc()


class Simulator:
    """Event loop with a simulated clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._queue: List[_QueuedEvent] = []
        self._seq = itertools.count()
        self._running = False
        self.events_processed = 0
        # Optional observability sink; None keeps the hot loop free of
        # instrumentation overhead.
        self._metrics: Optional[MetricsRegistry] = None

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Instrument the event loop with ``sim.*`` series.

        Counters track scheduled / processed / cancelled events and
        the ``sim.time_s`` gauge follows the simulated clock -- all
        derived from simulated quantities, never the wall clock, so
        snapshots stay bit-reproducible.
        """
        self._metrics = registry

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    # -- scheduling --------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable,
                 *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable,
                    *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} before now={self._now}")
        handle = EventHandle(time, callback, args, self)
        heapq.heappush(self._queue,
                       _QueuedEvent(time, next(self._seq), handle))
        if self._metrics is not None:
            self._metrics.counter("sim.events_scheduled").inc()
        return handle

    # -- execution ---------------------------------------------------------------

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.handle.cancelled:
                continue
            entry.handle.fired = True
            self._now = entry.time
            entry.handle.callback(*entry.handle.args)
            self.events_processed += 1
            if self._metrics is not None:
                self._metrics.counter("sim.events_processed").inc()
                self._metrics.gauge("sim.time_s").set(self._now)
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` passes, or the budget ends.

        A NaN ``until`` raises ``ValueError``: no event time compares
        greater than NaN, so a self-rescheduling callback would run forever.
        """
        if until is not None and math.isnan(until):
            raise ValueError("run(until=nan) would never stop")
        processed = 0
        while self._queue:
            if max_events is not None and processed >= max_events:
                return
            head = self._queue[0]
            if head.handle.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head.time > until:
                self._now = until
                return
            if not self.step():
                break
            processed += 1
        if until is not None and self._now < until:
            self._now = until
