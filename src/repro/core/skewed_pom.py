"""Unified skew-associative POM-TLB (paper footnote 1, future work).

The paper partitions the POM-TLB by page size and leaves "unified
designs with more complex addressing schemes such as skew-associativity"
to future work.  This module implements that design so the trade-off can
be measured:

* **one** physical table holds both page sizes (no static split to get
  wrong);
* each of the 4 ways hashes the key with a *different* function
  (Seznec-style skewing), which breaks the conflict pathologies of
  modulo indexing;
* the cost: a lookup no longer maps to a single 64 B line.  Each way's
  candidate slot lives in a different line, so a probe may fetch up to
  ``ways`` lines through the caches/DRAM, where the partitioned design
  always fetches exactly one.  (This serialization is exactly the
  "sophisticated design effort" the paper dodges.)

Slots are 16 B entries, four to a 64 B line within each way's region of
the address range, so the structure is memory-mapped and cacheable like
the baseline design.

Keys are packed integers (:func:`repro.tlb.entry.pack_key`); the way
hashes extract the (vpn, vm, asid, large) fields with shifts and masks
and mix them exactly as the seed-era NamedTuple version did, so every
slot placement — and therefore every counter — is unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..common import addr
from ..common.config import PomTlbConfig, SystemConfig
from ..common.stats import StatGroup
from ..dram import DramChannel
from ..tlb.entry import KEY_VM_FIELD_MASK, TlbEntry, pack_context, pack_key

#: Distinct odd multipliers, one per way (Knuth-style hashing).
_WAY_MIX = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F)
_VM_SPREAD = 0x9E37
_LINE_SHIFT = addr.CACHE_LINE_SHIFT


class SkewedPomTlb:
    """Drop-in POM-TLB variant with unified storage and skewed ways."""

    #: Batch-replay contract (:mod:`repro.core.batch`): resolving a miss
    #: through this structure never touches another core's L1 TLB or L1
    #: data cache (see :class:`repro.core.pom_tlb.PomTlb`).
    L1_PRIVATE = True

    def __init__(self, config: SystemConfig, stats) -> None:
        self.config: PomTlbConfig = config.pom_tlb
        self.stats: StatGroup = stats.group("pom_tlb")
        self.dram = DramChannel(config.stacked_dram, config.cpu_mhz,
                                stats.group("stacked_dram"))
        self._ways = self.config.ways
        total_entries = self.config.size_bytes // self.config.entry_bytes
        self._slots_per_way = total_entries // self._ways
        if not addr.is_power_of_two(self._slots_per_way):
            raise ValueError("skewed POM-TLB needs power-of-two slots/way")
        self._mask = self._slots_per_way - 1
        self._way_bytes = self.config.size_bytes // self._ways
        # (way, slot) -> (packed key, entry, last-touch stamp)
        self._slots: Dict[Tuple[int, int], Tuple[int, TlbEntry, int]] = {}
        self._clock = 0
        # key -> ((way, slot, line_addr), ...): the per-key geometry is
        # pure arithmetic, recomputed up to ~10x per miss by the probe
        # loop, the bypass trainer and insert(); memoize it per key.
        self._geom: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}
        # Indexed by the packed key's large bit (``key & 1``).
        self._hits = (self.stats.counter("hits_small"),
                      self.stats.counter("hits_large"))
        self._misses = (self.stats.counter("misses_small"),
                        self.stats.counter("misses_large"))
        self._fills = self.stats.counter("fills")
        self._evictions = self.stats.counter("evictions")

    # -- addressing -----------------------------------------------------------

    def _hash(self, key: int, way: int) -> int:
        # Same mix as the seed-era TlbKey version, fields unpacked inline.
        vpn = key >> 33
        mixed = ((vpn * _WAY_MIX[way]) ^ (vpn >> 13)
                 ^ (((key >> 1) & 0xFFFF) * _VM_SPREAD))
        mixed ^= ((key >> 17) & 0xFFFF) * 0x85EB
        if key & 1:
            mixed ^= 0x5A5A5A5A  # both sizes coexist in one table
        return mixed & self._mask

    def candidates(self, key: int) -> Tuple[Tuple[int, int, int], ...]:
        """``(way, slot, line_addr)`` per way, in probe order, memoized.

        The way hashes share every term except ``vpn * _WAY_MIX[way]``,
        so the common mix is computed once and XORed per way.
        """
        geom = self._geom.get(key)
        if geom is None:
            vpn = key >> 33
            base_mix = ((vpn >> 13)
                        ^ (((key >> 1) & 0xFFFF) * _VM_SPREAD)
                        ^ (((key >> 17) & 0xFFFF) * 0x85EB))
            if key & 1:
                base_mix ^= 0x5A5A5A5A
            mask = self._mask
            way_bytes = self._way_bytes
            line_base = self.config.base_address
            ways = []
            for way in range(self._ways):
                slot = ((vpn * _WAY_MIX[way]) ^ base_mix) & mask
                ways.append((way, slot,
                             line_base + (slot >> 2 << _LINE_SHIFT)))
                line_base += way_bytes
            geom = self._geom[key] = tuple(ways)
        return geom

    def _line_address(self, way: int, slot: int) -> int:
        way_base = self.config.base_address + way * self._way_bytes
        return way_base + (slot >> 2 << addr.CACHE_LINE_SHIFT)

    def candidate_lines(self, vaddr: int, vm_id: int,
                        large: bool) -> List[int]:
        """Line addresses to fetch, one per way, in probe order."""
        key = pack_key(vm_id, 0, vaddr >> addr.page_shift(large), large)
        # asid does not change the *line* ordering contract we expose to
        # callers who only know (vaddr, vm): include it via probe_line.
        return [line for _way, _slot, line in self.candidates(key)]

    def lines_for_key(self, key: int) -> List[int]:
        return [line for _way, _slot, line in self.candidates(key)]

    # -- functional content -----------------------------------------------------

    def probe_slot(self, key: int, way: int,
                   slot: int) -> Optional[TlbEntry]:
        """Check one precomputed ``(way, slot)`` candidate for ``key``."""
        slots = self._slots
        resident = slots.get((way, slot))
        if resident is not None and resident[0] == key:
            self._clock += 1
            slots[(way, slot)] = (key, resident[1], self._clock)
            counter = self._hits[key & 1]
            counter.value += 1
            counter.touched = True
            return resident[1]
        if way == self._ways - 1:
            counter = self._misses[key & 1]
            counter.value += 1
            counter.touched = True
        return None

    def probe_way(self, key: int, way: int) -> Optional[TlbEntry]:
        """Check a single way's candidate slot for ``key``."""
        return self.probe_slot(key, way, self.candidates(key)[way][1])

    def contains(self, key: int) -> bool:
        return any(
            (resident := self._slots.get((way, slot)))
            is not None and resident[0] == key
            for way, slot, _line in self.candidates(key))

    def insert(self, key: int,
               entry: TlbEntry) -> Tuple[int, Optional[int]]:
        """Install ``key``; returns (line address written, evicted key)."""
        self._clock += 1
        slots = self._slots
        candidates = self.candidates(key)
        # Update in place if present.
        for way, slot, line in candidates:
            resident = slots.get((way, slot))
            if resident is not None and resident[0] == key:
                slots[(way, slot)] = (key, entry, self._clock)
                self._fills.add()
                return line, None
        # Prefer an empty candidate slot.
        for way, slot, line in candidates:
            if (way, slot) not in slots:
                slots[(way, slot)] = (key, entry, self._clock)
                self._fills.add()
                return line, None
        # Evict the least recently touched candidate.
        way, slot, line = min(candidates,
                              key=lambda c: slots[(c[0], c[1])][2])
        evicted = slots[(way, slot)][0]
        slots[(way, slot)] = (key, entry, self._clock)
        self._fills.add()
        self._evictions.add()
        return line, evicted

    # -- shootdown & reporting ------------------------------------------------

    def invalidate(self, key: int) -> Optional[int]:
        """Drop ``key``; returns the line address it lived in, if any."""
        for way, slot, line in self.candidates(key):
            resident = self._slots.get((way, slot))
            if resident is not None and resident[0] == key:
                del self._slots[(way, slot)]
                self.stats.inc("shootdowns")
                return line
        return None

    def invalidate_vm(self, vm_id: int) -> List[int]:
        """Drop every translation of one VM (VM teardown).

        Returns the line address of every slot that lost its entry so
        the caller can drop stale cached copies of those lines.
        """
        vm_bits = pack_context(vm_id, 0) & KEY_VM_FIELD_MASK
        slots = self._slots
        doomed = [pos for pos, (key, _e, _t) in slots.items()
                  if key & KEY_VM_FIELD_MASK == vm_bits]
        for pos in doomed:
            del slots[pos]
        if doomed:
            self.stats.inc("shootdowns", len(doomed))
        # _line_address inlined
        base, way_bytes = self.config.base_address, self._way_bytes
        return [base + way * way_bytes + (slot >> 2 << _LINE_SHIFT)
                for way, slot in doomed]

    def resident(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(way, slot, packed_key)`` for every resident entry."""
        for (way, slot), (key, _entry, _stamp) in self._slots.items():
            yield way, slot, key

    def occupancy(self) -> Dict[str, int]:
        small = sum(1 for key, _e, _t in self._slots.values()
                    if not key & 1)
        return {"small": small, "large": len(self._slots) - small}

    def hit_rate(self) -> float:
        hits = self.stats["hits_small"] + self.stats["hits_large"]
        total = hits + self.stats["misses_small"] + self.stats["misses_large"]
        return hits / total if total else 0.0
