"""Discrete-event simulation: engine, live emulation, packet forwarding."""

from .emulation import CohortEmulation, EmulationStats, NeighborhoodEmulation
from .engine import EventHandle, Simulator
from .packets import PacketRecord, PacketSimulation

__all__ = ["CohortEmulation", "EmulationStats", "NeighborhoodEmulation",
           "EventHandle", "Simulator", "PacketRecord",
           "PacketSimulation"]
