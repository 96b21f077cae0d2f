"""Span-based tracing on the *simulated* clock.

A :class:`Tracer` stamps every record with an injected clock -- in
this repo always ``lambda: sim.now`` of a
:class:`~repro.sim.engine.Simulator` -- never the wall clock, so a
trace is as reproducible as the run that produced it: the same seeded
experiment yields a byte-identical JSONL export.

Two entry points cover the instrumented layers:

* :meth:`Tracer.event` -- an instantaneous mark (a fault firing);
* :meth:`Tracer.record` -- an explicit interval for procedures whose
  simulated duration is known analytically (NAS timer expiries +
  backoff) rather than by clock advance.

Attribute values are normalised to JSON scalars/lists at record time
so the export never depends on repr() details of live objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


def _jsonable(value: Any) -> Any:
    """Normalise an attribute value to JSON-stable scalars/lists."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return str(value)


@dataclass
class SpanRecord:
    """One traced interval (or instant, when ``end_s == start_s``)."""

    name: str
    start_s: float
    end_s: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """The JSONL line payload (plain dict, sorted attrs)."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(sorted(self.attrs.items())),
        }


class Tracer:
    """Collects :class:`SpanRecord` entries stamped by ``clock``.

    ``clock`` is any zero-argument callable returning simulated
    seconds; pass ``lambda: sim.now`` to trace a simulator run.  The
    default clock pins every record to t=0, which keeps an unwired
    tracer harmless (and obviously wrong in exports, rather than
    silently wall-clocked).
    """

    def __init__(self,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self._clock: Callable[[], float] = (
            clock if clock is not None else (lambda: 0.0))
        self.records: List[SpanRecord] = []

    # -- recording ----------------------------------------------------------------

    def event(self, name: str, **attrs: Any) -> SpanRecord:
        """Record an instantaneous mark at the current clock reading."""
        now = self._clock()
        return self.record(name, now, now, **attrs)

    def record(self, name: str, start_s: float, end_s: float,
               **attrs: Any) -> SpanRecord:
        """Record an explicit simulated interval."""
        if end_s < start_s:
            raise ValueError("span cannot end before it starts")
        span = SpanRecord(name, start_s, end_s,
                          {k: _jsonable(v) for k, v in attrs.items()})
        self.records.append(span)
        return span

    # -- reading ----------------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Every record as a plain dict, in recording order."""
        return [span.to_dict() for span in self.records]
