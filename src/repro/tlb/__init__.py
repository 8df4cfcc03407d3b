"""SRAM TLB structures and the latency model."""

from . import latency
from .entry import TlbEntry, TlbKey
from .tlb import SramTlb

__all__ = [
    "SramTlb",
    "TlbEntry",
    "TlbKey",
    "latency",
]
