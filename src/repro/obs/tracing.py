"""Span-based tracing on the *simulated* clock.

A :class:`Tracer` stamps every record with an injected clock -- in
this repo always ``lambda: sim.now`` of a
:class:`~repro.sim.engine.Simulator` -- never the wall clock, so a
trace is as reproducible as the run that produced it: the same seeded
experiment yields a byte-identical JSONL export.

Three entry points cover the instrumented layers:

* :meth:`Tracer.event` -- an instantaneous mark (a fault firing);
* :meth:`Tracer.span` -- a context manager for work bracketed in
  simulated time (an experiment phase);
* :meth:`Tracer.record` -- an explicit interval for procedures whose
  simulated duration is known analytically (NAS timer expiries +
  backoff) rather than by clock advance.

Attribute values are normalised to JSON scalars/lists at record time
so the export never depends on repr() details of live objects.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


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

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

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

    @property
    def now(self) -> float:
        """What the injected clock currently reads."""
        return self._clock()

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

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord]:
        """Bracket a block in simulated time.

        The record is appended on *entry* (trace order follows start
        order, matching event scheduling order) and its ``end_s`` is
        stamped on exit, after any attrs the block added.
        """
        span = SpanRecord(name, self._clock(), self._clock(),
                          {k: _jsonable(v) for k, v in attrs.items()})
        self.records.append(span)
        try:
            yield span
        finally:
            span.end_s = self._clock()
            span.attrs = {k: _jsonable(v)
                          for k, v in span.attrs.items()}

    # -- reading / export ---------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Every record as a plain dict, in recording order."""
        return [span.to_dict() for span in self.records]

    def export_jsonl(self) -> str:
        """The canonical byte-stable JSONL form (one span per line)."""
        return "".join(json.dumps(payload, sort_keys=True) + "\n"
                       for payload in self.to_dicts())

    def write_jsonl(self, path: str) -> None:
        """Write the JSONL export to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.export_jsonl())
