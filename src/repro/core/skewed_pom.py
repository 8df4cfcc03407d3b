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
the baseline design.  It answers the MMU and the verifier through the
same :class:`~repro.core.pom_tlb.PomStructure` interface as the
partitioned design: :meth:`SkewedPomTlb.candidates` lists one
``(line_addr, position)`` pair per way, and the Figure 7 flow of
:class:`~repro.core.mmu.PomTlbScheme` fetches them in order until one
hits.

Keys are packed integers (:func:`repro.tlb.entry.pack_key`); the way
hashes extract the (vpn, vm, asid, large) fields with shifts and masks
and mix them exactly as the seed-era NamedTuple version did, so every
slot placement — and therefore every counter — is unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..common import addr
from ..common.config import SystemConfig
from ..common.stats import StatRegistry
from ..tlb.entry import KEY_VM_FIELD_MASK, TlbEntry, pack_context
from .pom_tlb import PomStructure

#: Distinct odd multipliers, one per way (Knuth-style hashing).
_WAY_MIX = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F)
_VM_SPREAD = 0x9E37
_LINE_SHIFT = addr.CACHE_LINE_SHIFT


class SkewedPomTlb(PomStructure):
    """POM-TLB organisation with unified storage and skewed ways."""

    def __init__(self, config: SystemConfig, stats: StatRegistry) -> None:
        super().__init__(config, stats)
        total_entries = self.config.size_bytes // self.config.entry_bytes
        self._slots_per_way = total_entries // self._ways
        if not addr.is_power_of_two(self._slots_per_way):
            raise ValueError("skewed POM-TLB needs power-of-two slots/way")
        self._mask = self._slots_per_way - 1
        # Slots are numbered across the table, way by way: position
        # ``way * slots_per_way + index`` sits in 64 B line
        # ``position // 4`` of the mapped range.
        self._last_way_base = (self._ways - 1) * self._slots_per_way
        # position -> (packed key, entry, last-touch stamp)
        self._slots: Dict[int, Tuple[int, TlbEntry, int]] = {}
        self._clock = 0
        # key -> ((line_addr, position), ...): the per-key geometry is
        # pure arithmetic, recomputed several times per miss by the probe
        # loop, the bypass trainer and insert(); memoize it per key.
        self._geom: Dict[int, Tuple[Tuple[int, int], ...]] = {}

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

    def candidates(self, vaddr: int, key: int, vm_id: Optional[int] = None,
                   large: Optional[bool] = None
                   ) -> Tuple[Tuple[int, int], ...]:
        """``(line_addr, position)`` per way, in probe order, memoized.

        The way hashes read only the key (its vpn, vm, asid and size
        fields), so ``vaddr``/``vm_id``/``large`` are not consulted.
        They share every term except ``vpn * _WAY_MIX[way]``, so the
        common mix is computed once and XORed per way.
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
            base = self.config.base_address
            way_base = 0
            ways = []
            for way in range(self._ways):
                pos = way_base + (((vpn * _WAY_MIX[way]) ^ base_mix) & mask)
                ways.append((base + (pos >> 2 << _LINE_SHIFT), pos))
                way_base += self._slots_per_way
            geom = self._geom[key] = tuple(ways)
        return geom

    # -- functional content -----------------------------------------------------

    def probe_slot(self, key: int, pos: int) -> Optional[TlbEntry]:
        """Check one candidate position; a miss counts on the last way."""
        slots = self._slots
        resident = slots.get(pos)
        if resident is not None and resident[0] == key:
            self._clock += 1
            slots[pos] = (key, resident[1], self._clock)
            self._hits[key & 1].value += 1
            return resident[1]
        if pos >= self._last_way_base:
            self._misses[key & 1].value += 1
        return None

    def _holds(self, key: int, pos: int) -> bool:
        resident = self._slots.get(pos)
        return resident is not None and resident[0] == key

    def _drop(self, key: int, pos: int) -> None:
        del self._slots[pos]

    def insert(self, vaddr: int, key: int, entry: TlbEntry,
               vm_id: Optional[int] = None,
               large: Optional[bool] = None) -> Tuple[int, Optional[int]]:
        """Install ``key``; returns (line address written, evicted key)."""
        self._clock += 1
        slots = self._slots
        candidates = self.candidates(vaddr, key)
        # Update in place if present.
        for line, pos in candidates:
            resident = slots.get(pos)
            if resident is not None and resident[0] == key:
                slots[pos] = (key, entry, self._clock)
                self._fills.value += 1
                return line, None
        # Prefer an empty candidate slot.
        for line, pos in candidates:
            if pos not in slots:
                slots[pos] = (key, entry, self._clock)
                self._fills.value += 1
                return line, None
        # Evict the least recently touched candidate.
        line, pos = min(candidates, key=lambda c: slots[c[1]][2])
        evicted = slots[pos][0]
        slots[pos] = (key, entry, self._clock)
        self._fills.value += 1
        self._evictions.value += 1
        return line, evicted

    # -- teardown & reporting -------------------------------------------------

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
        self.stats.inc("shootdowns", len(doomed))
        base = self.config.base_address
        return [base + (pos >> 2 << _LINE_SHIFT) for pos in doomed]

    def resident(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(way, slot, packed_key)`` for every resident entry."""
        for pos, (key, _entry, _stamp) in self._slots.items():
            way, slot = divmod(pos, self._slots_per_way)
            yield way, slot, key

    def occupancy(self) -> Dict[str, int]:
        small = sum(1 for key, _e, _t in self._slots.values()
                    if not key & 1)
        return {"small": small, "large": len(self._slots) - small}
