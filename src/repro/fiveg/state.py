"""Session state: the five categories of S3.1.

"Each session has five categories of states according to standards
[46-51]": S1 identifiers, S2 locations, S3 QoS, S4 billing, S5
security.  This module models them as explicit dataclasses so every
procedure can record exactly which states it creates, copies, or
migrates -- the bookkeeping behind the signaling-cost and leakage
experiments.

The bundle serialises to bytes so the home can sign it and wrap it in
ABE for delegation to the UE (S4.4).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Optional, Tuple


class StateCategory(Enum):
    """The paper's S1-S5 taxonomy."""

    IDENTIFIERS = "S1"
    LOCATION = "S2"
    QOS = "S3"
    BILLING = "S4"
    SECURITY = "S5"


@dataclass(frozen=True)
class IdentifierState:
    """S1: UE and session identity."""

    supi: str
    session_id: int
    tunnel_id: int
    guti: Optional[str] = None


@dataclass(frozen=True)
class LocationState:
    """S2: serving cell, tracking area, and IP address."""

    cell_id: Tuple[int, int]
    tracking_area_id: Tuple[int, int]
    ip_address: str


@dataclass(frozen=True)
class QosState:
    """S3: QoS class, priority, and forwarding rules."""

    five_qi: int = 9
    priority: int = 8
    max_bitrate_up_kbps: int = 512
    max_bitrate_down_kbps: int = 896
    forwarding_rules: Tuple[str, ...] = ()


@dataclass(frozen=True)
class BillingState:
    """S4: usage-reporting rules and counters."""

    report_rules: Tuple[str, ...] = ("volume-per-hour",)
    quota_mb: int = 15_000
    used_mb: float = 0.0

    def charge(self, megabytes: float) -> "BillingState":
        """A copy with ``megabytes`` added to the usage counter."""
        return replace(self, used_mb=self.used_mb + megabytes)

    @property
    def throttled(self) -> bool:
        """The paper's example: throttle after the quota is burnt."""
        return self.used_mb >= self.quota_mb


@dataclass(frozen=True)
class SecurityState:
    """S5: keys, authentication vectors, and access policies.

    These are the states whose leakage Fig. 19 counts; they must
    never be stored long-term on satellites in SpaceCore.
    """

    k_amf: str = ""
    k_seaf: str = ""
    authentication_vector: str = ""
    access_policy: str = ""
    dh_prime_hex: str = ""
    dh_generator: int = 0


@dataclass(frozen=True)
class SessionState:
    """The full per-session bundle the core tracks for one UE."""

    identifiers: IdentifierState
    location: LocationState
    qos: QosState = field(default_factory=QosState)
    billing: BillingState = field(default_factory=BillingState)
    security: SecurityState = field(default_factory=SecurityState)
    version: int = 1
    ttl_s: float = 86400.0

    def bump_version(self) -> "SessionState":
        """A home-controlled update produces a strictly newer version."""
        return replace(self, version=self.version + 1)

    def expired(self, age_s: float) -> bool:
        """TTL expiry forces a refresh from the home (Appendix B)."""
        return age_s >= self.ttl_s

    # -- serialisation ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical encoding signed by the home and wrapped in ABE."""
        payload = asdict(self)
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "SessionState":
        raw = json.loads(data.decode())
        return cls(
            identifiers=IdentifierState(
                supi=raw["identifiers"]["supi"],
                session_id=raw["identifiers"]["session_id"],
                tunnel_id=raw["identifiers"]["tunnel_id"],
                guti=raw["identifiers"]["guti"],
            ),
            location=LocationState(
                cell_id=tuple(raw["location"]["cell_id"]),
                tracking_area_id=tuple(raw["location"]["tracking_area_id"]),
                ip_address=raw["location"]["ip_address"],
            ),
            qos=QosState(
                five_qi=raw["qos"]["five_qi"],
                priority=raw["qos"]["priority"],
                max_bitrate_up_kbps=raw["qos"]["max_bitrate_up_kbps"],
                max_bitrate_down_kbps=raw["qos"]["max_bitrate_down_kbps"],
                forwarding_rules=tuple(raw["qos"]["forwarding_rules"]),
            ),
            billing=BillingState(
                report_rules=tuple(raw["billing"]["report_rules"]),
                quota_mb=raw["billing"]["quota_mb"],
                used_mb=raw["billing"]["used_mb"],
            ),
            security=SecurityState(**raw["security"]),
            version=raw["version"],
            ttl_s=raw["ttl_s"],
        )
