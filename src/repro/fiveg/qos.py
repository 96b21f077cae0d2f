"""QoS enforcement: token-bucket rate limiting per session (S3).

The S3 QoS state is not just bookkeeping -- the UPF must *enforce* it.
This module implements the enforcement path: a token bucket
parameterised from :class:`~repro.fiveg.state.QosState`, so the
paper's "throttled to 128Kbps afterward" policy actually slows packets
down under the updated state the home pushes (S4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .state import QosState


class TokenBucket:
    """A standard token bucket: ``rate`` bytes/s, ``burst`` bytes."""

    def __init__(self, rate_bytes_s: float, burst_bytes: float):
        if rate_bytes_s <= 0 or burst_bytes <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate_bytes_s = rate_bytes_s
        self.burst_bytes = burst_bytes
        self._tokens = burst_bytes
        self._last_refill_s = 0.0

    def _refill(self, now_s: float) -> None:
        if now_s < self._last_refill_s:
            raise ValueError("time went backwards")
        elapsed = now_s - self._last_refill_s
        self._tokens = min(self.burst_bytes,
                           self._tokens + elapsed * self.rate_bytes_s)
        self._last_refill_s = now_s

    def admit(self, size_bytes: int, now_s: float) -> bool:
        """Admit or drop one packet at ``now_s``."""
        if size_bytes < 0:
            raise ValueError("packet size cannot be negative")
        self._refill(now_s)
        if size_bytes <= self._tokens:
            self._tokens -= size_bytes
            return True
        return False


@dataclass
class ShaperCounters:
    admitted: int = 0
    dropped: int = 0
    admitted_bytes: int = 0


class QosShaper:
    """Per-session uplink shaper derived from a QosState.

    The burst allowance is one second of line rate (a common default),
    floored at one MTU so a single full-size packet always fits.
    """

    MTU_BYTES = 1500

    def __init__(self, qos: QosState):
        self.qos = qos
        self._up = TokenBucket(*self._bucket_params(
            qos.max_bitrate_up_kbps))
        self.uplink = ShaperCounters()

    @classmethod
    def _bucket_params(cls, kbps: int) -> Tuple[float, float]:
        rate = kbps * 1000.0 / 8.0
        burst = max(float(cls.MTU_BYTES), rate)
        return rate, burst

    def admit_uplink(self, size_bytes: int, now_s: float) -> bool:
        """Shape one uplink packet; True when admitted."""
        ok = self._up.admit(size_bytes, now_s)
        self._count(self.uplink, ok, size_bytes)
        return ok

    @staticmethod
    def _count(counters: ShaperCounters, admitted: bool,
               size_bytes: int) -> None:
        if admitted:
            counters.admitted += 1
            counters.admitted_bytes += size_bytes
        else:
            counters.dropped += 1

    def achievable_throughput_kbps(self, direction: str,
                                   duration_s: float,
                                   packet_bytes: int = MTU_BYTES
                                   ) -> float:
        """Saturating throughput over ``duration_s`` (for tests/benches).

        Simulates back-to-back offered load at 1 ms granularity and
        reports what the shaper admitted.
        """
        if direction not in ("up", "down"):
            raise ValueError("direction is 'up' or 'down'")
        bucket = TokenBucket(*self._bucket_params(
            self.qos.max_bitrate_up_kbps if direction == "up"
            else self.qos.max_bitrate_down_kbps))
        admitted_bytes = 0
        t = 0.0
        while t < duration_s:
            while bucket.admit(packet_bytes, t):
                admitted_bytes += packet_bytes
            t += 0.001
        return admitted_bytes * 8.0 / 1000.0 / duration_s
