"""Signaling bus: records every message a procedure exchanges.

Procedures send all signaling through a bus so experiments can count
messages, bytes, and S5 exposure without instrumenting each NF.  The
bus records what was sent and in which order, not when: nothing here
charges latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .messages import MessageTemplate, Role


@dataclass(frozen=True)
class SentMessage:
    """One message instance observed on the bus."""

    template: MessageTemplate
    procedure: str

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
    """Collects :class:`SentMessage` records in send order."""

    def __init__(self):
        self.messages: List[SentMessage] = []

    def send(self, template: MessageTemplate, procedure: str) -> None:
        """Record one message."""
        self.messages.append(SentMessage(template, procedure))

    def count(self, procedure: Optional[str] = None) -> int:
        """Messages observed, optionally filtered by procedure id."""
        if procedure is None:
            return len(self.messages)
        return sum(1 for m in self.messages if m.procedure == procedure)
