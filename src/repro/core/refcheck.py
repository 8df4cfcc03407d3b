"""Frozen seed-era reference engine — the counter-equivalence oracle.

This module preserves, verbatim in structure and behaviour, the
per-reference simulation path the repository shipped **before** the
fast-path engine rewrite:

* per-probe :class:`~repro.tlb.entry.TlbKey` NamedTuple construction,
* string-keyed ``StatGroup.inc`` calls on every hit/miss,
* per-set :class:`~repro.cache.replacement.LruPolicy` objects next to
  the set dictionaries,
* newest-first list storage inside the POM-TLB sets, and
* the un-batched heap-merge replay loop of ``Machine.run``.

It exists for two reasons:

1. **Differential testing** — ``tests/integration/test_engine_equivalence.py``
   replays identical workloads through this oracle and through the
   optimized engine and asserts that every ``StatRegistry`` counter and
   every ``SimulationResult`` field is bit-identical.  Any future
   optimization that changes simulated behaviour fails that test.
2. **Throughput baseline** — ``benchmarks/test_bench_engine_throughput.py``
   measures references/second against this engine, so the speedup
   reported in ``BENCH_engine.json`` is a machine-independent ratio, not
   a recorded absolute number.

DO NOT optimize this module.  Its slowness is the point: it is the
recorded pre-rewrite baseline.  The substrate it runs on — data caches,
DRAM channel, page tables, paging-structure caches, walkers, demand
paging — comes from :mod:`repro.core._refimpl`, a package of verbatim
pre-rewrite copies, so the oracle is independent of every live module
the rewrite optimized.  Components the rewrite left untouched
(predictor, TSB, POM-TLB addressing, SRAM latency model, replacement
policies, physical memory, THP policy) are shared live.

Scope: the replayed translate/run path (what ``Machine.run`` exercises).
Shootdown modelling is not replicated here; it is off the replay loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..cache.replacement import LruPolicy
from ..common import addr
from ..common.config import (SharedL2Config, SystemConfig, TlbConfig,
                             TsbConfig)
from ..common.stats import StatGroup, StatRegistry
from ..faults import NO_TRANSLATION_FAULTS
from ..obs import Observability
from ..obs.tracer import NULL_TRACER
from ..tlb.entry import TlbEntry, TlbKey
from ..vmm.thp import ThpPolicy
from ..workloads.trace import CoreStream, interleave
from ._refimpl.channel import DramChannel
from ._refimpl.hierarchy import CacheHierarchy
from ._refimpl.vm import Host, NativeProcess, ResolvedPage
from ._refimpl.walkers import WalkerPool
from .addressing import PomTlbAddressing
from .mmu import TranslationResult
from .predictor import SizeBypassPredictor
from .system import SimulationResult
from .tsb import TranslationStorageBuffer


def _key_for(vm_id: int, asid: int, vaddr: int, large: bool) -> TlbKey:
    return TlbKey(vm_id=vm_id, asid=asid, vpn=vaddr >> addr.page_shift(large),
                  large=large)


# -- seed-era SRAM TLB (dict sets + LruPolicy side structure) -----------------


class RefSramTlb:
    """Seed-era SRAM TLB: NamedTuple keys, separate per-set LRU objects."""

    def __init__(self, config: TlbConfig, stats: StatGroup) -> None:
        self.config = config
        self.stats = stats
        self._num_sets = config.num_sets
        self._set_mask = self._num_sets - 1
        self._sets: Tuple[Dict[TlbKey, TlbEntry], ...] = tuple(
            {} for _ in range(self._num_sets))
        self._lru: Tuple[LruPolicy, ...] = tuple(
            LruPolicy() for _ in range(self._num_sets))

    def _set_index(self, key: TlbKey) -> int:
        return (key.vpn ^ (key.vm_id * 0x9E37)
                ^ (key.asid * 0x85EB)) & self._set_mask

    def lookup(self, key: TlbKey) -> Optional[TlbEntry]:
        set_idx = self._set_index(key)
        entry = self._sets[set_idx].get(key)
        if entry is not None:
            self.stats.inc("hits")
            self._lru[set_idx].touch(key)
            return entry
        self.stats.inc("misses")
        return None

    def insert(self, key: TlbKey, entry: TlbEntry) -> Optional[TlbKey]:
        set_idx = self._set_index(key)
        entries = self._sets[set_idx]
        lru = self._lru[set_idx]
        evicted: Optional[TlbKey] = None
        if key not in entries and len(entries) >= self.config.ways:
            evicted = lru.victim()
            del entries[evicted]
            lru.remove(evicted)
            self.stats.inc("evictions")
        entries[key] = entry
        lru.touch(key)
        self.stats.inc("fills")
        return evicted


class RefSharedLastLevelTlb:
    """Seed-era shared last-level TLB wrapper over :class:`RefSramTlb`."""

    def __init__(self, config: SharedL2Config, num_cores: int,
                 stats: StatGroup) -> None:
        self.config = config
        base = config.tlb_config(num_cores)
        access = config.array_latency_cycles
        self.tlb_config = TlbConfig(
            name=base.name, entries=base.entries, ways=base.ways,
            latency_cycles=access + config.interconnect_cycles)
        self._tlb = RefSramTlb(self.tlb_config, stats)

    @property
    def latency(self) -> int:
        return self.tlb_config.latency_cycles

    def lookup(self, key: TlbKey) -> Optional[TlbEntry]:
        return self._tlb.lookup(key)

    def insert(self, key: TlbKey, entry: TlbEntry) -> Optional[TlbKey]:
        return self._tlb.insert(key, entry)


# -- seed-era POM-TLB (newest-first list sets) --------------------------------

#: One set: newest-first list of (key, entry); len <= ways.
_Set = List[Tuple[TlbKey, TlbEntry]]


class RefPomTlb:
    """Seed-era POM-TLB: sparse dict of newest-first per-set lists."""

    def __init__(self, config: SystemConfig, stats: StatRegistry) -> None:
        self.config = config.pom_tlb
        self.addressing = PomTlbAddressing(self.config)
        self.stats: StatGroup = stats.group("pom_tlb")
        self.dram = DramChannel(config.stacked_dram, config.cpu_mhz,
                                stats.group("stacked_dram"))
        self._ways = self.config.ways
        self._sets: Dict[bool, Dict[int, _Set]] = {False: {}, True: {}}

    def set_address(self, vaddr: int, vm_id: int, large: bool) -> int:
        return self.addressing.set_address(vaddr, vm_id, large)

    def dram_access(self, set_paddr: int) -> int:
        return self.dram.access(set_paddr)

    def probe(self, vaddr: int, key: TlbKey) -> Optional[TlbEntry]:
        index = self.addressing.set_index(vaddr, key.vm_id, key.large)
        entries = self._sets[key.large].get(index)
        if entries:
            for position, (resident, entry) in enumerate(entries):
                if resident == key:
                    if position:
                        entries.insert(0, entries.pop(position))
                    self.stats.inc("hits_large" if key.large else "hits_small")
                    return entry
        self.stats.inc("misses_large" if key.large else "misses_small")
        return None

    def insert(self, vaddr: int, key: TlbKey,
               entry: TlbEntry) -> Tuple[int, Optional[TlbKey]]:
        index = self.addressing.set_index(vaddr, key.vm_id, key.large)
        sets = self._sets[key.large]
        entries = sets.get(index)
        if entries is None:
            entries = sets[index] = []
        evicted: Optional[TlbKey] = None
        for position, (resident, _old) in enumerate(entries):
            if resident == key:
                del entries[position]
                break
        else:
            if len(entries) >= self._ways:
                evicted, _ = entries.pop()  # LRU is last
                self.stats.inc("evictions")
        entries.insert(0, (key, entry))
        self.stats.inc("fills")
        set_paddr = self.set_address(vaddr, key.vm_id, key.large)
        return set_paddr, evicted


_WAY_MIX = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F)
_VM_SPREAD = 0x9E37


class RefSkewedPomTlb:
    """Seed-era skew-associative POM-TLB (NamedTuple-key hashing)."""

    def __init__(self, config: SystemConfig, stats) -> None:
        self.config = config.pom_tlb
        self.stats: StatGroup = stats.group("pom_tlb")
        self.dram = DramChannel(config.stacked_dram, config.cpu_mhz,
                                stats.group("stacked_dram"))
        self._ways = self.config.ways
        total_entries = self.config.size_bytes // self.config.entry_bytes
        self._slots_per_way = total_entries // self._ways
        self._mask = self._slots_per_way - 1
        self._way_bytes = self.config.size_bytes // self._ways
        self._slots: Dict[Tuple[int, int], Tuple[TlbKey, TlbEntry, int]] = {}
        self._clock = 0

    def _hash(self, key: TlbKey, way: int) -> int:
        vpn = key.vpn
        mixed = (vpn * _WAY_MIX[way]) ^ (vpn >> 13) ^ (key.vm_id * _VM_SPREAD)
        mixed ^= key.asid * 0x85EB
        if key.large:
            mixed ^= 0x5A5A5A5A
        return mixed & self._mask

    def _line_address(self, way: int, slot: int) -> int:
        way_base = self.config.base_address + way * self._way_bytes
        return way_base + (slot >> 2 << addr.CACHE_LINE_SHIFT)

    def lines_for_key(self, key: TlbKey) -> List[int]:
        return [self._line_address(way, self._hash(key, way))
                for way in range(self._ways)]

    def dram_access(self, line_addr: int) -> int:
        return self.dram.access(line_addr)

    def probe_way(self, key: TlbKey, way: int) -> Optional[TlbEntry]:
        slot = self._hash(key, way)
        resident = self._slots.get((way, slot))
        if resident is not None and resident[0] == key:
            self._clock += 1
            self._slots[(way, slot)] = (resident[0], resident[1], self._clock)
            self.stats.inc("hits_large" if key.large else "hits_small")
            return resident[1]
        if way == self._ways - 1:
            self.stats.inc("misses_large" if key.large else "misses_small")
        return None

    def insert(self, key: TlbKey,
               entry: TlbEntry) -> Tuple[int, Optional[TlbKey]]:
        self._clock += 1
        candidates = [(way, self._hash(key, way)) for way in range(self._ways)]
        for way, slot in candidates:
            resident = self._slots.get((way, slot))
            if resident is not None and resident[0] == key:
                self._slots[(way, slot)] = (key, entry, self._clock)
                self.stats.inc("fills")
                return self._line_address(way, slot), None
        for way, slot in candidates:
            if (way, slot) not in self._slots:
                self._slots[(way, slot)] = (key, entry, self._clock)
                self.stats.inc("fills")
                return self._line_address(way, slot), None
        way, slot = min(candidates, key=lambda c: self._slots[c][2])
        evicted = self._slots[(way, slot)][0]
        self._slots[(way, slot)] = (key, entry, self._clock)
        self.stats.inc("fills")
        self.stats.inc("evictions")
        return self._line_address(way, slot), evicted


# -- seed-era translation schemes ---------------------------------------------


class _RefCoreTlbs:
    """Private L1 (split) + L2 (unified) TLBs of one core."""

    def __init__(self, config: SystemConfig, stats: StatRegistry,
                 core: int) -> None:
        mmu = config.mmu
        self.l1_small = RefSramTlb(mmu.l1_small,
                                   stats.group(f"core{core}.l1_tlb_4k"))
        self.l1_large = RefSramTlb(mmu.l1_large,
                                   stats.group(f"core{core}.l1_tlb_2m"))
        self.l2 = RefSramTlb(mmu.l2_unified, stats.group(f"core{core}.l2_tlb"))
        self.l1_latency = mmu.l1_small.latency_cycles
        self.l2_latency = mmu.l2_unified.latency_cycles
        self.l2_miss_overhead = mmu.l2_unified.miss_penalty_cycles

    def l1(self, large: bool) -> RefSramTlb:
        return self.l1_large if large else self.l1_small


class RefTranslationScheme:
    """Seed-era base scheme: front end + template for the miss path."""

    name = "abstract"

    def __init__(self, config: SystemConfig, stats: StatRegistry,
                 hierarchy: CacheHierarchy, walkers: WalkerPool) -> None:
        self.config = config
        self.stats = stats
        self.hierarchy = hierarchy
        self.walkers = walkers
        self.cores: List[_RefCoreTlbs] = [
            _RefCoreTlbs(config, stats, core)
            for core in range(config.num_cores)]
        self.mmu_stats = stats.group("mmu")
        self.trace = NULL_TRACER

    def translate(self, core: int, vm_id: int, asid: int, vaddr: int,
                  page: ResolvedPage) -> TranslationResult:
        tlbs = self.cores[core]
        key = _key_for(vm_id, asid, vaddr, page.large)
        cycles = tlbs.l1_latency
        if tlbs.l1(page.large).lookup(key) is not None:
            return TranslationResult(cycles, False, 0)
        cycles += tlbs.l2_latency
        if tlbs.l2.lookup(key) is not None:
            tlbs.l1(page.large).insert(
                key, TlbEntry(page.host_frame >> addr.page_shift(page.large)))
            return TranslationResult(cycles, False, 0)
        self.mmu_stats.inc("l2_tlb_misses")
        penalty = self._resolve_miss(core, vm_id, asid, vaddr, page)
        entry = TlbEntry(page.host_frame >> addr.page_shift(page.large))
        tlbs.l2.insert(key, entry)
        tlbs.l1(page.large).insert(key, entry)
        self.mmu_stats.inc("penalty_cycles", penalty)
        return TranslationResult(cycles + penalty, True, penalty)

    def _resolve_miss(self, core: int, vm_id: int, asid: int, vaddr: int,
                      page: ResolvedPage) -> int:
        raise NotImplementedError

    def _walk(self, core: int, vm_id: int, asid: int, vaddr: int) -> int:
        result = self.walkers.walk(core, vm_id, asid, vaddr)
        self.mmu_stats.inc("page_walks")
        self.mmu_stats.inc("page_walk_cycles", result.cycles)
        return result.cycles


class RefBaselineWalkScheme(RefTranslationScheme):
    name = "baseline"

    def _resolve_miss(self, core: int, vm_id: int, asid: int, vaddr: int,
                      page: ResolvedPage) -> int:
        return (self.cores[core].l2_miss_overhead
                + self._walk(core, vm_id, asid, vaddr))


class RefPomTlbScheme(RefTranslationScheme):
    name = "pom"

    def __init__(self, config: SystemConfig, stats: StatRegistry,
                 hierarchy: CacheHierarchy, walkers: WalkerPool) -> None:
        super().__init__(config, stats, hierarchy, walkers)
        self.pom = RefPomTlb(config, stats)
        self.predictors: List[SizeBypassPredictor] = [
            SizeBypassPredictor(config.predictor,
                                stats.group(f"core{core}.predictor"))
            for core in range(config.num_cores)]
        self.flow_stats = stats.group("pom_flow")
        self._cache_entries = config.cache_tlb_entries
        self._prefetch = config.tlb_prefetch

    def _resolve_miss(self, core: int, vm_id: int, asid: int, vaddr: int,
                      page: ResolvedPage) -> int:
        predictor = self.predictors[core]
        cycles = 1  # predictor lookup
        predicted_large = predictor.predict_size(vaddr)
        bypass = (self._cache_entries
                  and self.config.predictor.bypass_enabled
                  and predictor.predict_bypass(vaddr))
        true_addr = self.pom.set_address(vaddr, vm_id, page.large)
        line_was_cached = (self._cache_entries
                           and self.hierarchy.tlb_line_cached(core, true_addr))

        entry: Optional[TlbEntry] = None
        for attempt, large in enumerate((predicted_large, not predicted_large)):
            set_addr = self.pom.set_address(vaddr, vm_id, large)
            cycles += self._fetch_set(core, set_addr, bypass)
            entry = self.pom.probe(vaddr, _key_for(vm_id, asid, vaddr, large))
            if entry is not None:
                self.flow_stats.inc("resolved_first_try" if attempt == 0
                                    else "resolved_second_try")
                break
        if entry is None:
            cycles += self._walk(core, vm_id, asid, vaddr)
            self.flow_stats.inc("resolved_by_walk")
            key = _key_for(vm_id, asid, vaddr, page.large)
            shift = addr.page_shift(page.large)
            set_paddr, _evicted = self.pom.insert(
                vaddr, key, TlbEntry(page.host_frame >> shift))
            self.hierarchy.invalidate_line(set_paddr)
            if self._cache_entries:
                self.hierarchy.tlb_line_fill(core, set_paddr)
        predictor.record_size(vaddr, page.large)
        if self._cache_entries and entry is not None:
            predictor.record_bypass(vaddr, line_was_cached)
        if self._prefetch and self._cache_entries:
            self._prefetch_next(core, vm_id, vaddr, page.large)
        return cycles

    def _prefetch_next(self, core: int, vm_id: int, vaddr: int,
                       large: bool) -> None:
        next_vaddr = vaddr + addr.page_size(large)
        set_addr = self.pom.set_address(next_vaddr, vm_id, large)
        if self.hierarchy.tlb_line_cached(core, set_addr):
            return
        self.pom.dram_access(set_addr)
        self.hierarchy.tlb_line_fill(core, set_addr)
        self.flow_stats.inc("prefetches")

    def _fetch_set(self, core: int, set_addr: int, bypass: bool) -> int:
        if not self._cache_entries or bypass:
            cycles = self.pom.dram_access(set_addr)
            if bypass:
                self.hierarchy.tlb_line_fill(core, set_addr)
            source = "dram_bypass" if bypass else "dram_uncached"
        else:
            cycles, level = self.hierarchy.tlb_line_probe(core, set_addr)
            if level is None:
                cycles += self.pom.dram_access(set_addr)
                self.hierarchy.tlb_line_fill(core, set_addr)
                source = "dram"
            else:
                source = level
        self.flow_stats.inc(f"set_from_{source}")
        return cycles


class RefSharedL2Scheme(RefTranslationScheme):
    name = "shared_l2"

    def __init__(self, config: SystemConfig, stats: StatRegistry,
                 hierarchy: CacheHierarchy, walkers: WalkerPool,
                 shared_config: Optional[SharedL2Config] = None) -> None:
        super().__init__(config, stats, hierarchy, walkers)
        self.shared = RefSharedLastLevelTlb(
            shared_config or SharedL2Config(), config.num_cores,
            stats.group("shared_l2_tlb"))
        self._shadow: List[RefSramTlb] = [
            RefSramTlb(config.mmu.l2_unified,
                       stats.group(f"core{c}.shadow_l2_tlb"))
            for c in range(config.num_cores)]
        self._baseline_l2_latency = config.mmu.l2_unified.latency_cycles

    def translate(self, core: int, vm_id: int, asid: int, vaddr: int,
                  page: ResolvedPage) -> TranslationResult:
        tlbs = self.cores[core]
        key = _key_for(vm_id, asid, vaddr, page.large)
        cycles = tlbs.l1_latency
        if tlbs.l1(page.large).lookup(key) is not None:
            return TranslationResult(cycles, False, 0)
        entry_template = TlbEntry(page.host_frame
                                  >> addr.page_shift(page.large))
        shadow = self._shadow[core]
        shadow_miss = shadow.lookup(key) is None
        if shadow_miss:
            shadow.insert(key, entry_template)
            self.mmu_stats.inc("l2_tlb_misses")
        cycles += self.shared.latency
        extra_hit_cost = max(0, self.shared.latency - self._baseline_l2_latency)
        entry = self.shared.lookup(key)
        if entry is not None:
            tlbs.l1(page.large).insert(key, entry)
            self.mmu_stats.inc("penalty_cycles", extra_hit_cost)
            return TranslationResult(cycles, shadow_miss, extra_hit_cost)
        penalty = extra_hit_cost + tlbs.l2_miss_overhead
        penalty += self._walk(core, vm_id, asid, vaddr)
        self.shared.insert(key, entry_template)
        tlbs.l1(page.large).insert(key, entry_template)
        self.mmu_stats.inc("penalty_cycles", penalty)
        return TranslationResult(cycles + penalty, shadow_miss, penalty)

    def _resolve_miss(self, core: int, vm_id: int, asid: int, vaddr: int,
                      page: ResolvedPage) -> int:  # pragma: no cover
        raise AssertionError("RefSharedL2Scheme overrides translate()")


class RefTsbScheme(RefTranslationScheme):
    name = "tsb"

    def __init__(self, config: SystemConfig, stats: StatRegistry,
                 hierarchy: CacheHierarchy, walkers: WalkerPool,
                 tsb_config: Optional[TsbConfig] = None) -> None:
        super().__init__(config, stats, hierarchy, walkers)
        self.tsb_config = tsb_config or TsbConfig()
        self.tsb = TranslationStorageBuffer(self.tsb_config,
                                            stats.group("tsb"))

    def _resolve_miss(self, core: int, vm_id: int, asid: int, vaddr: int,
                      page: ResolvedPage) -> int:
        cfg = self.tsb_config
        cycles = cfg.trap_cycles
        vpn = vaddr >> addr.page_shift(page.large)
        gpa_addr = page.guest_frame | addr.page_offset(vaddr, page.large)
        gpa_vpn = self.tsb.gpa_vpn(gpa_addr)
        cycles += self.hierarchy.data_access(
            core, self.tsb.guest_entry_address(vm_id, asid, vpn))
        gpa_frame = self.tsb.probe_guest(vm_id, asid, vpn, page.large)
        resolved = False
        if gpa_frame is not None:
            cycles += self.hierarchy.data_access(
                core, self.tsb.host_entry_address(vm_id, gpa_vpn))
            resolved = self.tsb.probe_host(vm_id, gpa_vpn) is not None
        if not resolved:
            cycles += self._walk(core, vm_id, asid, vaddr)
            self.tsb.fill_guest(vm_id, asid, vpn, page.large, page.guest_frame)
            hpa_addr = page.host_frame + (gpa_addr - page.guest_frame)
            self.tsb.fill_host(vm_id, gpa_vpn,
                               hpa_addr & ~(addr.SMALL_PAGE_SIZE - 1))
            cycles += self.hierarchy.data_access(
                core, self.tsb.guest_entry_address(vm_id, asid, vpn))
            cycles += self.hierarchy.data_access(
                core, self.tsb.host_entry_address(vm_id, gpa_vpn))
        return cycles


class RefSkewedPomScheme(RefTranslationScheme):
    name = "pom_skewed"

    def __init__(self, config: SystemConfig, stats: StatRegistry,
                 hierarchy: CacheHierarchy, walkers: WalkerPool) -> None:
        super().__init__(config, stats, hierarchy, walkers)
        self.pom = RefSkewedPomTlb(config, stats)
        self.predictors: List[SizeBypassPredictor] = [
            SizeBypassPredictor(config.predictor,
                                stats.group(f"core{core}.predictor"))
            for core in range(config.num_cores)]
        self.flow_stats = stats.group("pom_flow")
        self._cache_entries = config.cache_tlb_entries

    def _resolve_miss(self, core: int, vm_id: int, asid: int, vaddr: int,
                      page: ResolvedPage) -> int:
        predictor = self.predictors[core]
        cycles = 1  # predictor lookup
        predicted_large = predictor.predict_size(vaddr)
        bypass = (self._cache_entries
                  and self.config.predictor.bypass_enabled
                  and predictor.predict_bypass(vaddr))
        true_key = _key_for(vm_id, asid, vaddr, page.large)
        first_line = self.pom.lines_for_key(true_key)[0]
        line_was_cached = (self._cache_entries
                           and self.hierarchy.tlb_line_cached(core, first_line))

        entry: Optional[TlbEntry] = None
        for attempt, large in enumerate((predicted_large, not predicted_large)):
            key = _key_for(vm_id, asid, vaddr, large)
            for way, line_addr in enumerate(self.pom.lines_for_key(key)):
                cycles += self._fetch_line(core, line_addr, bypass)
                entry = self.pom.probe_way(key, way)
                if entry is not None:
                    break
            if entry is not None:
                self.flow_stats.inc("resolved_first_try" if attempt == 0
                                    else "resolved_second_try")
                break
        if entry is None:
            cycles += self._walk(core, vm_id, asid, vaddr)
            self.flow_stats.inc("resolved_by_walk")
            shift = addr.page_shift(page.large)
            line_addr, _evicted = self.pom.insert(
                true_key, TlbEntry(page.host_frame >> shift))
            self.hierarchy.invalidate_line(line_addr)
            if self._cache_entries:
                self.hierarchy.tlb_line_fill(core, line_addr)
        predictor.record_size(vaddr, page.large)
        if self._cache_entries and entry is not None:
            predictor.record_bypass(vaddr, line_was_cached)
        return cycles

    def _fetch_line(self, core: int, line_addr: int, bypass: bool) -> int:
        if not self._cache_entries or bypass:
            cycles = self.pom.dram_access(line_addr)
            if bypass:
                self.hierarchy.tlb_line_fill(core, line_addr)
            source = "dram_bypass" if bypass else "dram_uncached"
        else:
            cycles, level = self.hierarchy.tlb_line_probe(core, line_addr)
            if level is None:
                cycles += self.pom.dram_access(line_addr)
                self.hierarchy.tlb_line_fill(core, line_addr)
                source = "dram"
            else:
                source = level
        self.flow_stats.inc(f"set_from_{source}")
        return cycles


REF_SCHEMES = {
    scheme.name: scheme
    for scheme in (RefBaselineWalkScheme, RefPomTlbScheme,
                   RefSkewedPomScheme, RefSharedL2Scheme, RefTsbScheme)
}


# -- seed-era machine + replay loop -------------------------------------------


class ReferenceMachine:
    """Seed-era system wiring + the un-batched per-reference replay loop.

    Construction mirrors :class:`~repro.core.system.Machine` exactly
    (same component creation order, so demand-paging frame allocation is
    reproducible), but the translation scheme and the ``run`` loop are
    the frozen pre-rewrite implementations above.
    """

    def __init__(self, config: SystemConfig, scheme: str = "pom",
                 thp_large_fraction: float = 0.0, seed: int = 0,
                 tlb_priority: bool = False,
                 host_memory_bytes: int = 64 * addr.GiB,
                 thp_fractions: Optional[Dict[int, float]] = None,
                 obs: Optional[Observability] = None,
                 **scheme_kwargs) -> None:
        self.config = config
        self.seed = seed
        self.thp_large_fraction = thp_large_fraction
        self.thp_fractions = thp_fractions or {}
        self.stats = StatRegistry()
        self.hierarchy = CacheHierarchy(config, self.stats,
                                        tlb_priority=tlb_priority)
        self.host = Host(memory_bytes=host_memory_bytes)
        self._native_processes: Dict[int, NativeProcess] = {}
        self.walkers = WalkerPool(config, self.stats, self.hierarchy,
                                  self.host,
                                  native_resolver=self._native_process)
        try:
            scheme_cls = REF_SCHEMES[scheme]
        except KeyError:
            raise ValueError(f"unknown scheme {scheme!r}; pick one of "
                             f"{sorted(REF_SCHEMES)}") from None
        self.scheme = scheme_cls(config, self.stats, self.hierarchy,
                                 self.walkers, **scheme_kwargs)
        self.obs = obs if obs is not None else Observability()
        self.obs.attach(self)
        self.faults = NO_TRANSLATION_FAULTS

    def _thp(self, context_seed: int) -> ThpPolicy:
        fraction = self.thp_fractions.get(context_seed,
                                          self.thp_large_fraction)
        return ThpPolicy(fraction, seed=self.seed * 1000 + context_seed)

    def _native_process(self, asid: int) -> NativeProcess:
        proc = self._native_processes.get(asid)
        if proc is None:
            proc = NativeProcess(asid, self.host.memory, self._thp(asid))
            self._native_processes[asid] = proc
        return proc

    def touch(self, vm_id: int, asid: int, vaddr: int) -> ResolvedPage:
        if self.config.virtualized:
            vm = self.host.vms.get(vm_id)
            if vm is None:
                vm = self.host.create_vm(vm_id, self._thp(vm_id))
            return vm.touch(asid, vaddr)
        return self._native_process(asid).touch(vaddr)

    def run(self, streams: Iterable[CoreStream],
            max_references: Optional[int] = None,
            warmup_references: Union[int, Mapping[int, int]] = 0
            ) -> SimulationResult:
        """The seed-era replay loop, one heap-merged reference at a time."""
        streams = list(streams)
        for stream in streams:
            if stream.core >= self.config.num_cores:
                raise ValueError(f"stream core {stream.core} >= "
                                 f"{self.config.num_cores} cores")
        mmu_stats = self.stats.group("mmu")
        obs = self.obs
        tracer = obs.tracer
        histograms = obs.histograms
        translation_hist = penalty_hist = None
        if histograms is not None:
            translation_hist = histograms["translation_cycles"]
            penalty_hist = histograms["penalty_cycles"]
        windows = obs.windows
        references = 0
        translation_cycles = 0
        data_cycles = 0
        if isinstance(warmup_references, int):
            warmup_remaining: Dict[int, int] = (
                {-1: warmup_references} if warmup_references else {})
        else:
            warmup_remaining = {core: count for core, count
                                in warmup_references.items() if count > 0}
        in_warmup = bool(warmup_remaining)
        warmup_boundary: Dict[int, int] = {}
        last_icount: Dict[int, int] = {}
        for stream, ref in interleave(streams):
            if in_warmup and not warmup_remaining:
                in_warmup = False
                references = 0
                translation_cycles = 0
                data_cycles = 0
                self.stats.reset()
                obs.reset()
                if tracer.enabled:
                    tracer.marker("stats_reset")
                warmup_boundary = dict(last_icount)
            if in_warmup:
                key = -1 if -1 in warmup_remaining else stream.core
                if key in warmup_remaining:
                    warmup_remaining[key] -= 1
                    if warmup_remaining[key] <= 0:
                        del warmup_remaining[key]
            page = self.touch(stream.vm_id, stream.asid, ref.vaddr)
            result = self.scheme.translate(
                stream.core, stream.vm_id, stream.asid, ref.vaddr, page)
            translation_cycles += result.cycles
            hpa = page.host_frame | addr.page_offset(ref.vaddr, page.large)
            data_cycles += self.hierarchy.data_access(stream.core, hpa)
            if translation_hist is not None:
                translation_hist.record(result.cycles)
                if result.l2_miss:
                    penalty_hist.record(result.penalty)
            if windows is not None:
                windows.record(result.cycles, result.l2_miss, result.penalty)
            last_icount[stream.core] = ref.icount
            references += 1
            if max_references is not None and references >= max_references:
                break
        if in_warmup:
            raise ValueError(
                f"warmup ({warmup_references}) consumed the whole trace")
        if windows is not None:
            windows.finish()
        instructions = sum(
            last_icount[core] - warmup_boundary.get(core, 0)
            for core in last_icount)
        return SimulationResult(
            scheme=self.scheme.name,
            references=references,
            instructions=instructions,
            l2_tlb_misses=int(mmu_stats["l2_tlb_misses"]),
            penalty_cycles=int(mmu_stats["penalty_cycles"]),
            translation_cycles=translation_cycles,
            data_cycles=data_cycles,
            page_walks=int(mmu_stats["page_walks"]),
            stats=self.stats,
            histograms=histograms,
            windows=windows,
        )


def run_reference(benchmark: str, scheme: str, params) -> SimulationResult:
    """Replay one suite benchmark through the frozen reference engine.

    ``params`` is an :class:`~repro.experiments.runner.ExperimentParams`;
    workload generation and warmup policy match
    :func:`~repro.experiments.runner.simulate_run` so the result is
    directly comparable to the optimized engine's.
    """
    from ..workloads.suite import get_profile

    profile = get_profile(benchmark)
    workload = profile.build(num_cores=params.num_cores,
                             refs_per_core=params.refs_per_core,
                             seed=params.seed, scale=params.scale)
    machine = ReferenceMachine(params.system_config(), scheme=scheme,
                               thp_large_fraction=profile.thp_large_fraction,
                               seed=params.seed,
                               tlb_priority=params.tlb_priority)
    return machine.run(workload.streams,
                       warmup_references=workload.warmup_by_core
                       or workload.warmup_references)
