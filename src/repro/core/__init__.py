"""SpaceCore: the paper's primary contribution (S4-S5).

Stateless satellite core proxies, the terrestrial home state
authority, and the assembled :class:`SpaceCoreSystem`.
"""

from .edge import EdgeRequestResult, OrbitalEdgeService
from .home import SpaceCoreHome
from .integration import (
    AccessDecision,
    AccessDomain,
    IntegratedAccessManager,
    TerrestrialBaseStation,
)
from .robustness import ProcedureOutcome, ResilientSpaceCore
from .satellite import (
    FallbackRequired,
    ServedSession,
    SpaceCoreSatellite,
)
from .spacecore import DownlinkResult, SpaceCoreSystem

__all__ = [
    "EdgeRequestResult", "OrbitalEdgeService",
    "SpaceCoreHome",
    "AccessDecision", "AccessDomain", "IntegratedAccessManager",
    "TerrestrialBaseStation",
    "ProcedureOutcome", "ResilientSpaceCore",
    "FallbackRequired", "ServedSession", "SpaceCoreSatellite",
    "DownlinkResult", "SpaceCoreSystem",
]
