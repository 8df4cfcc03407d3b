"""Die-stacked DRAM used as an L4 *data* cache (paper Section 2.2).

The paper weighs two uses for the same 16 MB of die-stacked DRAM: a very
large L3 TLB (their proposal) or yet another level of data cache, and
argues the TLB wins because an L3-TLB hit can save up to 24 memory
accesses while an L4 hit saves one, and translations are blocking while
data misses overlap.  This module implements the alternative so the
trade-off experiment can actually be run.

The design is the practical direct-mapped "tags-in-DRAM" organisation of
Qureshi & Loh's Alloy Cache [39]: tag and data of one block live in the
same row, so

* a **hit** costs one stacked-DRAM access, and
* a **miss** costs the stacked access (tag probe) plus the off-chip
  access, then fills the line (possibly evicting).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from ..common import addr
from ..common.config import DramTimingConfig
from ..common.stats import StatGroup
from ..dram import DramChannel


class DramCacheAccess(NamedTuple):
    """Outcome of one L4 probe: tag matched?, stacked-DRAM cycles paid."""

    hit: bool
    cycles: int


class DramDataCache:
    """Direct-mapped Alloy-style DRAM cache in die-stacked memory."""

    def __init__(self, size_bytes: int, timing: DramTimingConfig,
                 cpu_mhz: int, stats: StatGroup,
                 base_address: int = 1 << 44) -> None:
        if size_bytes % addr.CACHE_LINE_SIZE:
            raise ValueError("DRAM cache size must be line-granular")
        self.size_bytes = size_bytes
        self.stats = stats
        self.base_address = base_address
        self._num_lines = size_bytes // addr.CACHE_LINE_SIZE
        if not addr.is_power_of_two(self._num_lines):
            raise ValueError("DRAM cache line count must be a power of two")
        self._mask = self._num_lines - 1
        self.channel = DramChannel(timing, cpu_mhz, stats)
        # Direct-mapped: index -> resident line address.
        self._lines: Dict[int, int] = {}

    def _index(self, paddr: int) -> int:
        return (paddr >> addr.CACHE_LINE_SHIFT) & self._mask

    def _slot_address(self, index: int) -> int:
        """Stacked-DRAM address of the tag+data slot for ``index``."""
        return self.base_address + index * addr.CACHE_LINE_SIZE

    def access(self, paddr: int) -> "DramCacheAccess":
        """Probe for ``paddr``: one stacked access resolves tag + data.

        The returned probe cycles are charged whether or not the tag
        matched (the Alloy design reads the tag-and-data slot in one
        burst); on a miss the caller adds the off-chip access and calls
        :meth:`fill`.
        """
        index = self._index(paddr)
        cycles = self.channel.access(self._slot_address(index))
        hit = self._lines.get(index) == addr.cache_line_base(paddr)
        self.stats.inc("l4_hits" if hit else "l4_misses")
        return DramCacheAccess(hit=hit, cycles=cycles)

    def fill(self, paddr: int) -> Optional[int]:
        """Install the line for ``paddr``; returns the evicted line."""
        index = self._index(paddr)
        evicted = self._lines.get(index)
        self._lines[index] = addr.cache_line_base(paddr)
        if evicted is not None:
            self.stats.inc("l4_evictions")
        self.stats.inc("l4_fills")
        return evicted

    def contains(self, paddr: int) -> bool:
        return self._lines.get(self._index(paddr)) == addr.cache_line_base(paddr)

    def invalidate(self, paddr: int) -> bool:
        index = self._index(paddr)
        if self._lines.get(index) == addr.cache_line_base(paddr):
            del self._lines[index]
            return True
        return False

    def __len__(self) -> int:
        return len(self._lines)
