"""DRAM channel: banks + address mapping + cache-line burst cost.

The channel is the unit the rest of the simulator talks to.  It returns
access latencies in **CPU cycles** so callers never deal with clock-domain
conversion.  The model is deliberately a latency model, not a cycle-exact
command scheduler: the paper's evaluation needs row-buffer behaviour and
hit/miss/conflict latencies (Ramulator-like), not inter-command timing
corner cases.
"""

from __future__ import annotations

from ..common import addr
from ..common.config import DramTimingConfig
from ..common.stats import StatGroup
from ..obs import events
from ..obs.tracer import NULL_TRACER
from .bank import DramBank
from .mapping import AddressMapper

#: Every access moves one cache line over a double-data-rate bus.
_LINE = addr.CACHE_LINE_SIZE


class DramChannel:
    """One independent DRAM channel (die-stacked or DDR4)."""

    def __init__(self, timing: DramTimingConfig, cpu_mhz: int,
                 stats: StatGroup) -> None:
        self.timing = timing
        self.cpu_mhz = cpu_mhz
        self.stats = stats
        self.mapper = AddressMapper(timing)
        self._banks = [DramBank(i, timing, stats) for i in range(timing.banks)]
        #: Event tracer; the null object unless Observability attaches one.
        self.trace = NULL_TRACER
        #: Optional latency histogram (set by Observability on the
        #: stacked-DRAM channel); None keeps the hot path untouched.
        self.histogram = None
        # Hot-path constants: the address decomposition (mirrors
        # ``self.mapper``), the CPU-cycle latency of each row-buffer
        # outcome for one cache line and resolved counter slots.
        self._row_shift = addr.ilog2(timing.row_buffer_bytes)
        self._bank_mask = timing.banks - 1
        self._bank_bits = addr.ilog2(timing.banks)
        latency = typical_latencies(timing, cpu_mhz)
        self._hit_cycles = latency["row_hit"]
        self._miss_cycles = latency["row_miss"]
        self._conflict_cycles = latency["row_conflict"]
        self._accesses = stats.counter("accesses")
        self._bytes = stats.counter("bytes")

    def access(self, paddr: int) -> int:
        """Read/write the cache line at ``paddr``; returns CPU cycles."""
        block = paddr >> self._row_shift
        row = block >> self._bank_bits
        bank = self._banks[block & self._bank_mask]
        # DramBank.access unrolled over the bank's slots (row-buffer
        # outcome, state update) — one call frame per DRAM access was
        # measurable on the miss-bound schemes.
        open_row = bank._open_row
        if open_row == row:
            slot = bank._row_hits
            cycles = self._hit_cycles
        else:
            if open_row is None:
                slot = bank._row_misses
                cycles = self._miss_cycles
            else:
                slot = bank._row_conflicts
                cycles = self._conflict_cycles
            bank._open_row = row
        slot.value += 1
        slot.touched = True
        slot = self._accesses
        slot.value += 1
        slot.touched = True
        slot = self._bytes
        slot.value += _LINE
        slot.touched = True
        if self.histogram is not None:
            self.histogram.record(cycles)
        if self.trace.active:
            self.trace.emit(events.DRAM_ACCESS, cycles=cycles,
                            bank=block & self._bank_mask, row=row,
                            outcome=("hit" if open_row == row
                                     else "miss" if open_row is None
                                     else "conflict"))
        return cycles

    def row_buffer_hit_rate(self) -> float:
        """Fraction of accesses served from an open row buffer."""
        return self.stats.ratio(
            "row_hits",
            "accesses") if self.stats["accesses"] else 0.0

    def precharge_all(self) -> None:
        """Close every open row (models a refresh interval boundary)."""
        for bank in self._banks:
            bank.precharge()

    @property
    def banks(self) -> int:
        return len(self._banks)


def typical_latencies(timing: DramTimingConfig, cpu_mhz: int) -> dict:
    """CPU-cycle latencies of the three access classes for one cache line.

    :class:`DramChannel` charges exactly these, so the documented figures
    and the simulated ones cannot drift apart: e.g. with the paper's
    stacked-DRAM parameters at a 4 GHz core a row hit costs 60 cycles.
    """
    burst = -(-_LINE // max(1, timing.bus_bits // 8 * 2))
    base = timing.controller_cycles + burst
    return {
        "row_hit": timing.cpu_cycles(base + timing.tcas, cpu_mhz),
        "row_miss": timing.cpu_cycles(base + timing.trcd + timing.tcas, cpu_mhz),
        "row_conflict": timing.cpu_cycles(
            base + timing.trp + timing.trcd + timing.tcas, cpu_mhz),
    }
