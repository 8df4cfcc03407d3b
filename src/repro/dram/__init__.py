"""Ramulator-like DRAM latency model (banks, row buffers, channels)."""

from .channel import DramChannel, typical_latencies
from .scheduler import CommandScheduler, LatencySummary, Request, summarize_latencies

__all__ = [
    "DramChannel",
    "CommandScheduler",
    "LatencySummary",
    "Request",
    "summarize_latencies",
    "typical_latencies",
]
