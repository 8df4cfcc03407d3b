"""Three-level data-cache hierarchy with a DRAM backing channel.

Per core: private L1D and L2D.  Shared: one L3D, an optional
stacked-DRAM L4 data cache (Section 2.2 trade-off study), and one
off-chip DDR4 channel.  Hit latencies are load-to-use from the core
(an L3 hit costs its 42 cycles total, not 4+12+42); fills propagate
back up the hierarchy on the miss path.

Two access flavours exist because the POM-TLB flow differs from a load:

* :meth:`data_access` — a normal load or store (PTE references
  included): L1 -> L2 -> L3 -> DRAM.
* :meth:`tlb_line_probe` — the MMU probing for a cached POM-TLB set:
  starts at the **L2D$** (the paper's MMU issues the load there), then
  L3D$; the caller decides what to do on miss (go to stacked DRAM) and
  calls :meth:`tlb_line_fill` afterwards.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..common.config import SystemConfig
from ..common.stats import StatRegistry
from ..dram import DramChannel
from .cache import DATA, TLB, SetAssociativeCache, priority_victim
from .dram_cache import DramDataCache


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
        # Load-to-use latencies, hoisted off the per-access path.
        self._l1_latency = config.l1d.latency_cycles
        self._l2_latency = config.l2d.latency_cycles
        self._l3_latency = config.l3d.latency_cycles
        # Every SRAM cache, for invalidate_line (POM-TLB set shootdowns
        # hit this once per insert; rebuilding the list there is waste).
        self._all_caches = tuple(self._l1 + self._l2 + [self._l3])
        # POM-TLB lines enter the SRAM caches only through
        # tlb_line_fill / tlb_line_probe — a per-core L2 plus the shared
        # L3 — so L1s and the L4 can never hold one and need no probe.
        self._tlb_line_caches = tuple(self._l2) + (self._l3,)

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
        """Load or store at physical address ``paddr``; returns CPU cycles.

        Latencies are **load-to-use from the core** (Table 1 semantics):
        an L3 hit costs 42 cycles total, not 4+12+42 — the lower levels'
        lookups overlap the path to the bigger array.  Misses allocate
        in every level; a store costs what a load costs.
        """
        l1, l2 = self._l1[core], self._l2[core]
        # The whole path is unrolled over the caches' set dicts: probes
        # (the hit is the common outcome for page-walk PTE references,
        # this method's dominant caller) and the miss-path fills.
        # Unconditional pop + reinsert produces the same recency order as
        # lookup()'s conditional move-to-end; the inlined fills skip
        # fill()'s already-resident branch (the probe just missed).
        line = paddr >> l1._line_shift
        tags1 = l1._tags[line & l1._set_mask]
        tag1 = line >> l1._set_shift
        kind = tags1.pop(tag1, None)
        if kind is not None:
            tags1[tag1] = kind
            l1._data_hits.value += 1
            return self._l1_latency
        l1._data_misses.value += 1
        line = paddr >> l2._line_shift
        tags2 = l2._tags[line & l2._set_mask]
        tag2 = line >> l2._set_shift
        kind = tags2.pop(tag2, None)
        if kind is not None:
            tags2[tag2] = kind
            l2._data_hits.value += 1
            cycles = self._l2_latency
        else:
            l2._data_misses.value += 1
            l3 = self._l3
            line = paddr >> l3._line_shift
            tags3 = l3._tags[line & l3._set_mask]
            tag3 = line >> l3._set_shift
            kind = tags3.pop(tag3, None)
            if kind is not None:
                tags3[tag3] = kind
                l3._data_hits.value += 1
                cycles = self._l3_latency
            else:
                l3._data_misses.value += 1
                cycles = self._l3_latency
                if self._l4 is not None:
                    probe = self._l4.access(paddr)
                    if probe.hit:
                        cycles += probe.cycles
                    else:
                        # Self-balancing dispatch (Sim et al. [44]): the
                        # off-chip access is issued in parallel with the
                        # stacked probe, so a miss costs the slower of
                        # the two, not their sum.
                        cycles += max(probe.cycles, self._dram.access(paddr))
                        self._l4.fill(paddr)
                else:
                    cycles += self._dram.access(paddr)
                # L3 fill
                if len(tags3) >= l3._ways:
                    victim = (priority_victim(tags3) if l3.tlb_priority
                              else next(iter(tags3)))
                    slot = (l3._data_evictions if tags3.pop(victim) == DATA
                            else l3._tlb_evictions)
                    slot.value += 1
                tags3[tag3] = DATA
                l3._data_fills.value += 1
            # L2 fill
            if len(tags2) >= l2._ways:
                victim = (priority_victim(tags2) if l2.tlb_priority
                          else next(iter(tags2)))
                slot = (l2._data_evictions if tags2.pop(victim) == DATA
                        else l2._tlb_evictions)
                slot.value += 1
            tags2[tag2] = DATA
            l2._data_fills.value += 1
        # L1 fill (the L1s never hold TLB lines: plain LRU)
        if len(tags1) >= l1._ways:
            slot = (l1._data_evictions
                    if tags1.pop(next(iter(tags1))) == DATA
                    else l1._tlb_evictions)
            slot.value += 1
        tags1[tag1] = DATA
        l1._data_fills.value += 1
        return cycles

    # -- POM-TLB entry path ------------------------------------------------

    def tlb_line_probe(self, core: int, paddr: int) -> Tuple[int, Optional[str]]:
        """Probe L2D$ then L3D$ for a POM-TLB line.

        Returns ``(cycles, hit_level)`` with ``hit_level`` one of
        ``"l2"``, ``"l3"`` or ``None``.  Mirrors Section 2.1.3: the MMU
        issues the set address to the L2D$; L1 is not involved.
        Latencies are load-to-use (an L3 hit costs its 42 cycles total).
        """
        # Both lookups unrolled over the caches' set dicts — this probe
        # runs on every L2 TLB miss of the POM schemes (cf. the L1
        # unroll in data_access).
        l2 = self._l2[core]
        line = paddr >> l2._line_shift
        tags = l2._tags[line & l2._set_mask]
        tag = line >> l2._set_shift
        if tag in tags:
            l2._tlb_hits.value += 1
            if next(reversed(tags)) != tag:
                tags[tag] = tags.pop(tag)
            return self._l2_latency, "l2"
        l2._tlb_misses.value += 1
        l3 = self._l3
        line = paddr >> l3._line_shift
        tags = l3._tags[line & l3._set_mask]
        tag = line >> l3._set_shift
        if tag in tags:
            l3._tlb_hits.value += 1
            if next(reversed(tags)) != tag:
                tags[tag] = tags.pop(tag)
            l2.fill(paddr, TLB)
            return self._l3_latency, "l3"
        l3._tlb_misses.value += 1
        return self._l3_latency, None

    def tlb_line_fill(self, core: int, paddr: int) -> None:
        """Install a POM-TLB line fetched from stacked DRAM into L2/L3."""
        # Both fills inlined (TLB kind) — this runs once per
        # stacked-DRAM set fetch on the POM schemes.  Unlike the
        # data_access fills the line may already be resident (bypass
        # fetches fill without probing), so the refresh branch stays.
        l3 = self._l3
        line = paddr >> l3._line_shift
        tags = l3._tags[line & l3._set_mask]
        tag = line >> l3._set_shift
        if tag in tags:
            del tags[tag]
        elif len(tags) >= l3._ways:
            victim = (priority_victim(tags) if l3.tlb_priority
                      else next(iter(tags)))
            slot = (l3._data_evictions if tags.pop(victim) == DATA
                    else l3._tlb_evictions)
            slot.value += 1
        tags[tag] = TLB
        l3._tlb_fills.value += 1
        l2 = self._l2[core]
        line = paddr >> l2._line_shift
        tags = l2._tags[line & l2._set_mask]
        tag = line >> l2._set_shift
        if tag in tags:
            del tags[tag]
        elif len(tags) >= l2._ways:
            victim = (priority_victim(tags) if l2.tlb_priority
                      else next(iter(tags)))
            slot = (l2._data_evictions if tags.pop(victim) == DATA
                    else l2._tlb_evictions)
            slot.value += 1
        tags[tag] = TLB
        l2._tlb_fills.value += 1

    def tlb_line_refill(self, core: int, paddr: int) -> None:
        """:meth:`invalidate_tlb_line` then :meth:`tlb_line_fill`, fused.

        A POM-TLB set rewritten after a walk is stale in every cache and
        refreshed on the requester's path.  Each cache's set and tag are
        computed once; the per-core L2s share one geometry.  The L3 and
        the requester's L2 drop the line and refill it in one step (a
        dropped line leaves room, so only an absent line can evict).
        """
        l2 = self._l2[core]
        line = paddr >> l2._line_shift
        set2 = line & l2._set_mask
        tag2 = line >> l2._set_shift
        for cache in self._l2:
            if cache is l2:
                continue
            tags = cache._tags[set2]
            if tag2 in tags:
                del tags[tag2]
        l3 = self._l3
        line = paddr >> l3._line_shift
        tags = l3._tags[line & l3._set_mask]
        tag = line >> l3._set_shift
        if tag in tags:
            del tags[tag]
        elif len(tags) >= l3._ways:
            victim = (priority_victim(tags) if l3.tlb_priority
                      else next(iter(tags)))
            slot = (l3._data_evictions if tags.pop(victim) == DATA
                    else l3._tlb_evictions)
            slot.value += 1
        tags[tag] = TLB
        l3._tlb_fills.value += 1
        tags = l2._tags[set2]
        if tag2 in tags:
            del tags[tag2]
        elif len(tags) >= l2._ways:
            victim = (priority_victim(tags) if l2.tlb_priority
                      else next(iter(tags)))
            slot = (l2._data_evictions if tags.pop(victim) == DATA
                    else l2._tlb_evictions)
            slot.value += 1
        tags[tag2] = TLB
        l2._tlb_fills.value += 1

    def tlb_line_cached(self, core: int, paddr: int) -> bool:
        """Side-effect-free check used to train the bypass predictor."""
        # contains() inlined twice — runs alongside every tlb_line_probe.
        l2 = self._l2[core]
        line = paddr >> l2._line_shift
        if (line >> l2._set_shift) in l2._tags[line & l2._set_mask]:
            return True
        l3 = self._l3
        line = paddr >> l3._line_shift
        return (line >> l3._set_shift) in l3._tags[line & l3._set_mask]

    def tlb_lines(self) -> List[int]:
        """Every cached TLB-kind line address (L2s then L3, duplicates kept).

        TLB lines only ever enter through ``tlb_line_probe`` /
        ``tlb_line_fill``, so scanning ``_tlb_line_caches`` is exhaustive.
        """
        lines: List[int] = []
        for cache in self._tlb_line_caches:
            lines.extend(cache.resident_lines(TLB))
        return lines

    def tlb_line_caches(self) -> Tuple[SetAssociativeCache, ...]:
        """The caches that may hold TLB-kind lines (per-core L2s + L3)."""
        return self._tlb_line_caches

    def all_caches(self) -> Tuple[SetAssociativeCache, ...]:
        """Every SRAM cache in the hierarchy (L1s, L2s, L3)."""
        return self._all_caches

    def invalidate_line(self, paddr: int) -> None:
        """Drop a line everywhere (TLB shootdown of a cached set)."""
        for cache in self._all_caches:
            cache.invalidate(paddr)
        if self._l4 is not None:
            self._l4.invalidate(paddr)

    def invalidate_lines(self, addrs: Sequence[int],
                         tlb_only: bool = False) -> None:
        """:meth:`invalidate_line` (or, with ``tlb_only``,
        :meth:`invalidate_tlb_line`) for every address in ``addrs``.

        Loops over the caches outside and the addresses inside with no
        call per line (VM teardown drops hundreds).  Dropping lines
        commutes, so the result equals the per-address calls.
        """
        for cache in self._tlb_line_caches if tlb_only else self._all_caches:
            line_shift = cache._line_shift
            set_mask = cache._set_mask
            set_shift = cache._set_shift
            all_tags = cache._tags
            for paddr in addrs:
                line = paddr >> line_shift
                tags = all_tags[line & set_mask]
                tag = line >> set_shift
                if tag in tags:
                    del tags[tag]
        if not tlb_only and self._l4 is not None:
            for paddr in addrs:
                self._l4.invalidate(paddr)

    def invalidate_tlb_line(self, paddr: int) -> None:
        """Drop a stale POM-TLB line (insert or shootdown).

        Behaviour-identical to :meth:`invalidate_line` for these
        addresses: only the L2s and the L3 can hold a TLB line, so the
        L1/L4 probes it skips are always no-ops.
        """
        for cache in self._tlb_line_caches:
            cache.invalidate(paddr)
