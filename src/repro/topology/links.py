"""Link delay: speed-of-light propagation over a geometric distance."""

from __future__ import annotations

from ..constants import SPEED_OF_LIGHT_KM_S


def propagation_delay_s(distance_km: float) -> float:
    """One-way speed-of-light delay over ``distance_km`` (seconds)."""
    if distance_km < 0:
        raise ValueError("distance cannot be negative")
    return distance_km / SPEED_OF_LIGHT_KM_S
