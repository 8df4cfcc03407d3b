"""Three-level data-cache hierarchy with a DRAM backing channel.

Per core: private L1D and L2D.  Shared: one L3D, an optional
stacked-DRAM L4 data cache (Section 2.2 trade-off study), and one
off-chip DDR4 channel.  Hit latencies are load-to-use from the core
(an L3 hit costs its 42 cycles total, not 4+12+42); fills propagate
back up the hierarchy on the miss path.

Two access flavours exist because the POM-TLB flow differs from a load:

* :meth:`data_access` — a normal load/store: L1 -> L2 -> L3 -> DRAM.
* :meth:`tlb_line_probe` — the MMU probing for a cached POM-TLB set:
  starts at the **L2D$** (the paper's MMU issues the load there), then
  L3D$; the caller decides what to do on miss (go to stacked DRAM) and
  calls :meth:`tlb_line_fill` afterwards.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...common.config import SystemConfig
from ...common.stats import StatRegistry
from .channel import DramChannel
from .cache import DATA, TLB, SetAssociativeCache
from ...cache.dram_cache import DramDataCache


class CacheHierarchy:
    """All data caches of the chip plus the main-memory channel."""

    def __init__(self, config: SystemConfig, stats: StatRegistry,
                 tlb_priority: bool = False) -> None:
        self.config = config
        self._l1: List[SetAssociativeCache] = []
        self._l2: List[SetAssociativeCache] = []
        for core in range(config.num_cores):
            self._l1.append(SetAssociativeCache(
                config.l1d, stats.group(f"core{core}.l1d")))
            self._l2.append(SetAssociativeCache(
                config.l2d, stats.group(f"core{core}.l2d"),
                tlb_priority=tlb_priority))
        self._l3 = SetAssociativeCache(
            config.l3d, stats.group("l3d"), tlb_priority=tlb_priority)
        self._dram = DramChannel(config.main_dram, config.cpu_mhz,
                                 stats.group("main_dram"))
        self._l4: Optional[DramDataCache] = None
        if config.l4_data_cache_bytes:
            self._l4 = DramDataCache(
                config.l4_data_cache_bytes, config.stacked_dram,
                config.cpu_mhz, stats.group("l4_cache"))
        # Always empty; kept because every stats snapshot lists it.
        stats.group("writebacks")

    # -- component access ---------------------------------------------------

    def l1(self, core: int) -> SetAssociativeCache:
        return self._l1[core]

    def l2(self, core: int) -> SetAssociativeCache:
        return self._l2[core]

    @property
    def l3(self) -> SetAssociativeCache:
        return self._l3

    @property
    def main_dram(self) -> DramChannel:
        return self._dram

    @property
    def l4(self) -> Optional[DramDataCache]:
        """The optional stacked-DRAM L4 data cache (None when disabled)."""
        return self._l4

    # -- normal data path -----------------------------------------------------

    def data_access(self, core: int, paddr: int) -> int:
        """Load/store at physical address ``paddr``; returns CPU cycles.

        Latencies are **load-to-use from the core** (Table 1 semantics):
        an L3 hit costs 42 cycles total, not 4+12+42 — the lower levels'
        lookups overlap the path to the bigger array.  Write misses
        allocate (write-allocate); writes cost the same as reads.
        """
        l1, l2 = self._l1[core], self._l2[core]
        if l1.lookup(paddr, DATA):
            return l1.latency
        if l2.lookup(paddr, DATA):
            self._fill_l1(core, paddr)
            return l2.latency
        if self._l3.lookup(paddr, DATA):
            self._fill_l2(core, paddr)
            self._fill_l1(core, paddr)
            return self._l3.latency
        cycles = self._l3.latency
        if self._l4 is not None:
            probe = self._l4.access(paddr)
            if probe.hit:
                cycles += probe.cycles
            else:
                # Self-balancing dispatch (Sim et al. [44]): the off-chip
                # access is issued in parallel with the stacked probe, so
                # a miss costs the slower of the two, not their sum.
                cycles += max(probe.cycles, self._dram.access(paddr))
                self._l4.fill(paddr)
        else:
            cycles += self._dram.access(paddr)
        self._fill_l3(paddr)
        self._fill_l2(core, paddr)
        self._fill_l1(core, paddr)
        return cycles

    # -- fills --------------------------------------------------------------

    def _fill_l1(self, core: int, paddr: int) -> None:
        self._l1[core].fill(paddr, DATA)

    def _fill_l2(self, core: int, paddr: int) -> None:
        self._l2[core].fill(paddr, DATA)

    def _fill_l3(self, paddr: int) -> None:
        self._l3.fill(paddr, DATA)

    def pte_access(self, core: int, paddr: int) -> int:
        """A page-walker reference to a page-table entry.

        PTE lines live in the normal data caches (the baseline the paper
        compares against caches page-table entries), so this is the same
        path as :meth:`data_access`; kept separate for readability at the
        call sites and so future experiments can split the statistics.
        """
        return self.data_access(core, paddr)

    # -- POM-TLB entry path ------------------------------------------------

    def tlb_line_probe(self, core: int, paddr: int) -> Tuple[int, Optional[str]]:
        """Probe L2D$ then L3D$ for a POM-TLB line.

        Returns ``(cycles, hit_level)`` with ``hit_level`` one of
        ``"l2"``, ``"l3"`` or ``None``.  Mirrors Section 2.1.3: the MMU
        issues the set address to the L2D$; L1 is not involved.
        Latencies are load-to-use (an L3 hit costs its 42 cycles total).
        """
        l2 = self._l2[core]
        if l2.lookup(paddr, TLB):
            return l2.latency, "l2"
        if self._l3.lookup(paddr, TLB):
            l2.fill(paddr, TLB)
            return self._l3.latency, "l3"
        return self._l3.latency, None

    def tlb_line_fill(self, core: int, paddr: int) -> None:
        """Install a POM-TLB line fetched from stacked DRAM into L2/L3."""
        self._l3.fill(paddr, TLB)
        self._l2[core].fill(paddr, TLB)

    def tlb_line_cached(self, core: int, paddr: int) -> bool:
        """Side-effect-free check used to train the bypass predictor."""
        return self._l2[core].contains(paddr) or self._l3.contains(paddr)

    def invalidate_line(self, paddr: int) -> None:
        """Drop a line everywhere (TLB shootdown of a cached set)."""
        for cache in self._l1 + self._l2 + [self._l3]:
            cache.invalidate(paddr)
        if self._l4 is not None:
            self._l4.invalidate(paddr)
