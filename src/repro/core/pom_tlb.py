"""The POM-TLB: a very large L3 TLB resident in (die-stacked) DRAM.

Functional content and DRAM timing of the structure of paper Section 2.1:

* two physical partitions (4 KiB / 2 MiB entries), statically sized;
* 16 B entries, 4-way associative sets = one 64 B line, so one DRAM
  burst fetches a whole set and the LRU decision needs no extra access;
* per-set true LRU via the 2 attribute bits of each entry;
* memory-mapped: every set has a physical address
  (:class:`~repro.core.addressing.PomTlbAddressing`), which is what lets
  the MMU cache sets in the L2/L3 data caches;
* backed by one dedicated channel of die-stacked DRAM whose bank/row
  state produces the Figure 11 row-buffer behaviour.

The *timing* of an access (probe through caches, bypass, fills) is
orchestrated by the MMU (:mod:`repro.core.mmu`); the structure answers
functional questions (which lines does a probe fetch? is the translation
present? what got evicted?) through the :class:`PomStructure` interface,
which the unified skew-associative organisation
(:mod:`repro.core.skewed_pom`) implements too.

Keys are packed integers (:func:`repro.tlb.entry.pack_key`).  The MMU
already holds ``vm_id``/``large`` as locals, so the entry points take
them as arguments instead of re-extracting them from the key.  Each set
is a dict in recency order (first key = LRU victim), replacing the
seed-era newest-first list with the same victim sequence.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..common import addr
from ..common.config import PomTlbConfig, SystemConfig
from ..common.stats import StatGroup, StatRegistry
from ..dram import DramChannel
from ..tlb.entry import KEY_VM_FIELD_MASK, TlbEntry, pack_context
from .addressing import PomTlbAddressing

#: One set: dict of packed key -> entry in recency order (oldest first).
_Set = Dict[int, TlbEntry]

# Inlined PomTlbAddressing arithmetic (same constants as addressing.py);
# the candidate lookup runs once or twice per L2 TLB miss and a method
# call plus ``addr.page_shift`` per index was measurable there.
_VM_SPREAD = 0x9E37
_SMALL_SHIFT = addr.SMALL_PAGE_SHIFT
_LARGE_SHIFT = addr.LARGE_PAGE_SHIFT
_LINE = addr.CACHE_LINE_SIZE


class PomStructure:
    """What the MMU flow and the verifier ask of a POM-TLB organisation.

    Every per-translation query is keyed by ``(vaddr, key, vm_id,
    large)``; ``vm_id``/``large`` must match the packed key's fields (the
    MMU passes them because it holds them as locals, other callers may
    omit them).

    * :meth:`candidates` — the ``(line_addr, slot)`` pairs one probe
      fetches, in order: one for a partitioned set, one per way when
      the ways are skewed;
    * :meth:`probe_slot` — check one candidate, refreshing LRU on a hit;
      a probe counts one hit or one miss (the miss on its last candidate);
    * :meth:`insert` / :meth:`invalidate` — return the line written or
      dropped, :meth:`invalidate_vm` one line per dropped entry;
    * :meth:`contains`, :meth:`key_lines`, :meth:`vm_lines` — where a key
      or a VM's entries live now, with no LRU or stats side effects.

    A subclass provides ``candidates``, ``probe_slot``, ``_holds`` (the
    side-effect-free slot check), ``_drop`` (empty one slot), ``insert``,
    ``invalidate_vm`` and ``resident`` (yielding tuples that end in the
    packed key).
    """

    #: Batch-replay contract (:mod:`repro.core.batch`): resolving a miss
    #: through this structure touches the stacked DRAM and the L2/L3
    #: SRAM caches (TLB-kind lines) but never another core's L1 TLB or
    #: L1 data cache — the property that keeps the batched engine's
    #: same-stream duplicate collapsing and inline L1 probes exact.
    L1_PRIVATE = True

    def __init__(self, config: SystemConfig, stats: StatRegistry) -> None:
        self.config: PomTlbConfig = config.pom_tlb
        self.stats: StatGroup = stats.group("pom_tlb")
        self.dram = DramChannel(config.stacked_dram, config.cpu_mhz,
                                stats.group("stacked_dram"))
        self._ways = self.config.ways
        # Indexed by the packed key's large bit (``key & 1``).
        self._hits = (self.stats.counter("hits_small"),
                      self.stats.counter("hits_large"))
        self._misses = (self.stats.counter("misses_small"),
                        self.stats.counter("misses_large"))
        self._fills = self.stats.counter("fills")
        self._evictions = self.stats.counter("evictions")

    def probe(self, vaddr: int, key: int, vm_id: Optional[int] = None,
              large: Optional[bool] = None) -> Optional[TlbEntry]:
        """One probe attempt without the line fetches: first hit wins."""
        for _line, slot in self.candidates(vaddr, key, vm_id, large):
            entry = self.probe_slot(key, slot)
            if entry is not None:
                return entry
        return None

    def key_lines(self, vaddr: int, key: int, vm_id: Optional[int] = None,
                  large: Optional[bool] = None) -> List[int]:
        """Lines currently holding ``key`` (empty when it is absent)."""
        return [line for line, slot
                in self.candidates(vaddr, key, vm_id, large)
                if self._holds(key, slot)]

    def contains(self, vaddr: int, key: int, vm_id: Optional[int] = None,
                 large: Optional[bool] = None) -> bool:
        """Presence check with no LRU or stats side effects."""
        return bool(self.key_lines(vaddr, key, vm_id, large))

    def vm_lines(self, vm_id: int) -> List[int]:
        """Lines holding an entry of ``vm_id``, one per entry.

        Found per resident key through :meth:`key_lines`, not by the
        bulk scan of ``invalidate_vm``, so the verifier can hold one
        against the other.
        """
        return [line for *_pos, key in self.resident()
                if (key >> 1) & 0xFFFF == vm_id
                for line in self.key_lines(
                    (key >> 33) << addr.page_shift(bool(key & 1)), key)]

    def invalidate(self, vaddr: int, key: int, vm_id: Optional[int] = None,
                   large: Optional[bool] = None) -> Optional[int]:
        """Drop one translation; returns the line it lived in, if any."""
        for line, slot in self.candidates(vaddr, key, vm_id, large):
            if self._holds(key, slot):
                self._drop(key, slot)
                self.stats.inc("shootdowns")
                return line
        return None


class PomTlb(PomStructure):
    """The paper's partitioned POM-TLB: one 64 B set per probe."""

    def __init__(self, config: SystemConfig, stats: StatRegistry) -> None:
        super().__init__(config, stats)
        self.addressing = PomTlbAddressing(self.config)
        # Partition geometry, hoisted for the inlined index math below.
        self._small_mask = self.config.small_sets - 1
        self._large_mask = self.config.large_sets - 1
        self._small_base = self.config.small_base
        self._large_base = self.config.large_base
        # Sparse set storage per partition, keyed by set index; a set
        # exists only while it holds an entry, so a VM teardown scans
        # live sets, not every set any VM ever touched.
        self._sets: Tuple[Dict[int, _Set], Dict[int, _Set]] = ({}, {})

    # -- addressing -----------------------------------------------------------

    def candidates(self, vaddr: int, key: int, vm_id: Optional[int] = None,
                   large: Optional[bool] = None) -> Tuple[Tuple[int, int]]:
        """The one ``(set_paddr, set_index)`` pair: a set is one line."""
        if vm_id is None:
            vm_id = (key >> 1) & 0xFFFF
            large = key & 1
        if large:
            index = ((vaddr >> _LARGE_SHIFT)
                     ^ (vm_id * _VM_SPREAD)) & self._large_mask
            return ((self._large_base + index * _LINE, index),)
        index = ((vaddr >> _SMALL_SHIFT)
                 ^ (vm_id * _VM_SPREAD)) & self._small_mask
        return ((self._small_base + index * _LINE, index),)

    def set_address(self, vaddr: int, vm_id: int, large: bool) -> int:
        """Physical address of the set ``vaddr`` maps to in a partition."""
        return self.candidates(vaddr, 0, vm_id, large)[0][0]

    # -- functional content -----------------------------------------------------

    def probe_slot(self, key: int, index: int) -> Optional[TlbEntry]:
        """Search set ``index`` of the key's partition; LRU refresh on hit."""
        large = key & 1
        entries = self._sets[large].get(index)
        if entries:
            entry = entries.get(key)
            if entry is not None:
                if next(reversed(entries)) != key:
                    del entries[key]
                    entries[key] = entry
                self._hits[large].value += 1
                return entry
        self._misses[large].value += 1
        return None

    def _holds(self, key: int, index: int) -> bool:
        entries = self._sets[key & 1].get(index)
        return entries is not None and key in entries

    def _drop(self, key: int, index: int) -> None:
        sets = self._sets[key & 1]
        entries = sets[index]
        del entries[key]
        if not entries:
            del sets[index]

    def insert(self, vaddr: int, key: int, entry: TlbEntry,
               vm_id: Optional[int] = None,
               large: Optional[bool] = None) -> Tuple[int, Optional[int]]:
        """Install a translation after a page walk.

        Returns ``(set_paddr, evicted_key)`` so the MMU can keep cached
        copies of the set coherent and account the eviction.
        """
        (set_paddr, index), = self.candidates(vaddr, key, vm_id, large)
        sets = self._sets[key & 1]
        entries = sets.get(index)
        if entries is None:
            entries = sets[index] = {}
        evicted: Optional[int] = None
        if key in entries:
            del entries[key]
        elif len(entries) >= self._ways:
            evicted = next(iter(entries))  # LRU is first
            del entries[evicted]
            self._evictions.value += 1
        entries[key] = entry
        self._fills.value += 1
        return set_paddr, evicted

    # -- teardown ---------------------------------------------------------

    def invalidate_vm(self, vm_id: int) -> List[int]:
        """Drop every translation of one VM (VM teardown).

        Returns the physical address of every 64 B set that lost an
        entry (one occurrence per dropped entry) so the caller can
        invalidate stale cached copies of those sets — without this the
        L2D$/L3D$ keep serving the dead VM's sets.
        """
        vm_bits = pack_context(vm_id, 0) & KEY_VM_FIELD_MASK
        # One flat scan over every resident entry, no call per set.
        doomed = [(sets, index, key, base + index * _LINE)
                  for sets, base in ((self._sets[0], self._small_base),
                                     (self._sets[1], self._large_base))
                  for index, entries in sets.items()
                  for key in entries if key & KEY_VM_FIELD_MASK == vm_bits]
        for sets, index, key, _set_paddr in doomed:
            entries = sets[index]
            del entries[key]
            if not entries:
                del sets[index]
        self.stats.inc("shootdowns", len(doomed))
        return [set_paddr for _sets, _index, _key, set_paddr in doomed]

    # -- introspection -----------------------------------------------------

    def resident(self) -> Iterator[Tuple[bool, int, int]]:
        """Yield ``(large, set_index, packed_key)`` for every entry."""
        for large, sets in enumerate(self._sets):
            for index, entries in sets.items():
                for key in entries:
                    yield bool(large), index, key

    def set_sizes(self) -> Iterator[Tuple[bool, int, int]]:
        """Yield ``(large, set_index, occupancy)`` per non-empty set."""
        for large, sets in enumerate(self._sets):
            for index, entries in sets.items():
                yield bool(large), index, len(entries)

    # -- reporting ---------------------------------------------------------

    def occupancy(self) -> Dict[str, int]:
        """Resident entry counts per partition."""
        return {
            "small": sum(len(v) for v in self._sets[False].values()),
            "large": sum(len(v) for v in self._sets[True].values()),
        }
