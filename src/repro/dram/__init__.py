"""Ramulator-like DRAM latency model (banks, row buffers, channels)."""

from .channel import DramChannel, typical_latencies
from .mapping import AddressMapper, DramCoordinate
from .scheduler import CommandScheduler, LatencySummary, Request, summarize_latencies

__all__ = [
    "AddressMapper",
    "DramChannel",
    "CommandScheduler",
    "DramCoordinate",
    "LatencySummary",
    "Request",
    "summarize_latencies",
    "typical_latencies",
]
