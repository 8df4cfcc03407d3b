"""DRAM channel: banks + address mapping + cache-line burst cost.

The channel is the unit the rest of the simulator talks to.  It returns
access latencies in **CPU cycles** so callers never deal with clock-domain
conversion.  The model is deliberately a latency model, not a cycle-exact
command scheduler: the paper's evaluation needs row-buffer behaviour and
hit/miss/conflict latencies (Ramulator-like), not inter-command timing
corner cases.

Each bank has an open-page row buffer, and an access is classed by the
row it requests against the row latched in its bank:

* **row hit** — the row is already open: pay ``tCAS``.
* **row miss (bank idle)** — no row open: pay ``tRCD + tCAS``.
* **row conflict** — a different row is open: pay ``tRP + tRCD + tCAS``.

The paper's Figure 11 reports the resulting row-buffer hit rate for
POM-TLB traffic.
"""

from __future__ import annotations

from ..common import addr
from ..common.config import DramTimingConfig
from ..common.stats import StatGroup
from ..obs import events
from ..obs.tracer import NULL_TRACER

#: Every access moves one cache line over a double-data-rate bus.
_LINE = addr.CACHE_LINE_SIZE


class DramChannel:
    """One independent DRAM channel (die-stacked or DDR4)."""

    def __init__(self, timing: DramTimingConfig, cpu_mhz: int,
                 stats: StatGroup) -> None:
        self.timing = timing
        self.cpu_mhz = cpu_mhz
        self.stats = stats
        #: Row latched in each bank's row buffer; None while it is idle.
        self._open_rows = [None] * timing.banks
        #: Event tracer; the null object unless Observability attaches one.
        self.trace = NULL_TRACER
        # Hot-path constants: the address decomposition (that of
        # :meth:`~repro.dram.scheduler.CommandScheduler.locate`), the
        # CPU-cycle latency of each row-buffer outcome for one cache line
        # and resolved counter slots, shared by every bank.
        self._row_shift = addr.ilog2(timing.row_buffer_bytes)
        self._bank_mask = timing.banks - 1
        self._bank_bits = addr.ilog2(timing.banks)
        latency = typical_latencies(timing, cpu_mhz)
        self._hit_cycles = latency["row_hit"]
        self._miss_cycles = latency["row_miss"]
        self._conflict_cycles = latency["row_conflict"]
        self._row_hits = stats.counter("row_hits")
        self._row_misses = stats.counter("row_misses")
        self._row_conflicts = stats.counter("row_conflicts")
        self._accesses = stats.counter("accesses")
        self._bytes = stats.counter("bytes")

    def access(self, paddr: int) -> int:
        """Read/write the cache line at ``paddr``; returns CPU cycles."""
        block = paddr >> self._row_shift
        row = block >> self._bank_bits
        bank = block & self._bank_mask
        open_rows = self._open_rows
        open_row = open_rows[bank]
        if open_row == row:
            slot = self._row_hits
            cycles = self._hit_cycles
        else:
            if open_row is None:
                slot = self._row_misses
                cycles = self._miss_cycles
            else:
                slot = self._row_conflicts
                cycles = self._conflict_cycles
            open_rows[bank] = row
        slot.value += 1
        self._accesses.value += 1
        self._bytes.value += _LINE
        if self.trace.active:
            self.trace.emit(events.DRAM_ACCESS, cycles=cycles,
                            bank=bank, row=row,
                            outcome=("hit" if open_row == row
                                     else "miss" if open_row is None
                                     else "conflict"))
        return cycles

    @property
    def banks(self) -> int:
        return len(self._open_rows)

    def latency_counts(self):
        """``(cycles, accesses)`` per row-buffer outcome since the last
        stats reset: each outcome has one latency, so the outcome
        counters hold the channel's whole latency distribution."""
        return ((self._hit_cycles, self._row_hits.value),
                (self._miss_cycles, self._row_misses.value),
                (self._conflict_cycles, self._row_conflicts.value))


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
