"""Signaling bus: records every message a procedure exchanges.

Procedures send all signaling through a bus so experiments can count
messages, bytes, and S5 exposure without instrumenting each NF.  The
optional per-hop latency callback lets the emulation charge
propagation delays for messages that cross the space-ground boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .messages import MessageTemplate, Role


@dataclass(frozen=True)
class SentMessage:
    """One message instance observed on the bus."""

    template: MessageTemplate
    procedure: str
    timestamp: float

    @property
    def src(self) -> Role:
        return self.template.src

    @property
    def dst(self) -> Role:
        return self.template.dst

    @property
    def size_bytes(self) -> int:
        return self.template.size_bytes

    @property
    def carries_security(self) -> bool:
        return self.template.carries_security


class SignalingBus:
    """Collects :class:`SentMessage` records and accumulates latency."""

    def __init__(self, latency_fn: Optional[Callable[[Role, Role], float]]
                 = None):
        self.messages: List[SentMessage] = []
        self._latency_fn = latency_fn
        self.elapsed_s = 0.0

    def send(self, template: MessageTemplate, procedure: str) -> None:
        """Record one message and charge its path latency."""
        self.messages.append(SentMessage(template, procedure,
                                         self.elapsed_s))
        if self._latency_fn is not None:
            self.elapsed_s += self._latency_fn(template.src, template.dst)

    def count(self, procedure: Optional[str] = None) -> int:
        """Messages observed, optionally filtered by procedure id."""
        if procedure is None:
            return len(self.messages)
        return sum(1 for m in self.messages if m.procedure == procedure)
