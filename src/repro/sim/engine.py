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
    callback: Callable = field(compare=False)
    args: Tuple = field(compare=False)


class Simulator:
    """Event loop with a simulated clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5.0, fired.append, "a")
    >>> sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self):
        self._now = 0.0
        self._queue: List[_QueuedEvent] = []
        self._seq = itertools.count()
        self._running = False
        self.events_processed = 0
        # Optional observability sink; None keeps the hot loop free of
        # instrumentation overhead.
        self._metrics: Optional[MetricsRegistry] = None

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Instrument the event loop with ``sim.*`` series.

        Counters track scheduled / processed events and
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
                 *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable,
                    *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} before now={self._now}")
        heapq.heappush(self._queue, _QueuedEvent(
            time, next(self._seq), callback, args))
        if self._metrics is not None:
            self._metrics.counter("sim.events_scheduled").inc()

    # -- execution ---------------------------------------------------------------

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        if not self._queue:
            return False
        entry = heapq.heappop(self._queue)
        self._now = entry.time
        entry.callback(*entry.args)
        self.events_processed += 1
        if self._metrics is not None:
            self._metrics.counter("sim.events_processed").inc()
            self._metrics.gauge("sim.time_s").set(self._now)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or ``until`` passes.

        A NaN ``until`` raises ``ValueError``: no event time compares
        greater than NaN, so a self-rescheduling callback would run forever.
        """
        if until is not None and math.isnan(until):
            raise ValueError("run(until=nan) would never stop")
        while self._queue:
            head = self._queue[0]
            if until is not None and head.time > until:
                self._now = until
                return
            self.step()
        if until is not None and self._now < until:
            self._now = until
