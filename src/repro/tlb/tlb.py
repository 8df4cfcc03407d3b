"""Set-associative SRAM TLB (L1 split / L2 unified / shared baselines).

Lookups are keyed by **packed integer keys** (:func:`repro.tlb.entry.pack_key`);
the named :class:`~repro.tlb.entry.TlbKey` view is reconstructed only for
introspection.  A unified TLB in real hardware probes its sets once per
supported page size; here the MMU probes with the translation's true
size, which produces identical hit/miss outcomes (a wrong-size probe can
never hit: the entry was installed under its true size).

Recency is the insertion order of each set's dict: a hit deletes and
reinserts the key (``move_to_end``), the victim is the first key in
iteration order.  That reproduces the seed-era per-set ``LruPolicy``
victim sequence exactly with no side structure to maintain.

Invalidation supports the shootdown granularities the paper's
mostly-inclusive consistency scheme needs: single page, ASID, VM, or
full flush.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.config import TlbConfig
from ..common.stats import StatGroup
from .entry import (KEY_VM_FIELD_MASK, SET_HASH_ASID, SET_HASH_VM, TlbEntry,
                    TlbKey, pack_context, unpack_key)


class SramTlb:
    """One SRAM TLB level, keyed by packed integer keys."""

    #: Batch-replay contract (:mod:`repro.core.batch`): as Shared_L2's
    #: backing array, resolving a miss never touches another core's L1
    #: TLB or L1 data cache (see :class:`repro.core.pom_tlb.PomTlb`).
    L1_PRIVATE = True

    def __init__(self, config: TlbConfig, stats: StatGroup) -> None:
        self.config = config
        self.stats = stats
        self._num_sets = config.num_sets
        self._set_mask = self._num_sets - 1
        self._ways = config.ways
        self._sets: Tuple[Dict[int, TlbEntry], ...] = tuple(
            [{} for _ in range(self._num_sets)])
        self._hits = stats.counter("hits")
        self._misses = stats.counter("misses")
        self._fills = stats.counter("fills")
        self._evictions = stats.counter("evictions")

    def _set_index(self, key: int) -> int:
        # XOR in vm/asid so co-running guests spread over the sets.
        # Field extraction inlined from entry.py's packed layout.
        return ((key >> 33)
                ^ (((key >> 1) & 0xFFFF) * SET_HASH_VM)
                ^ (((key >> 17) & 0xFFFF) * SET_HASH_ASID)) & self._set_mask

    # -- operations -----------------------------------------------------------

    def lookup(self, key: int) -> Optional[TlbEntry]:
        """Probe for ``key``; refreshes recency and stats."""
        set_idx = ((key >> 33)
                   ^ (((key >> 1) & 0xFFFF) * SET_HASH_VM)
                   ^ (((key >> 17) & 0xFFFF) * SET_HASH_ASID)) & self._set_mask
        entries = self._sets[set_idx]
        entry = entries.get(key)
        if entry is not None:
            slot = self._hits
            slot.value += 1
            slot.touched = True
            # move_to_end: delete + reinsert keeps dict order == recency.
            del entries[key]
            entries[key] = entry
            return entry
        slot = self._misses
        slot.value += 1
        slot.touched = True
        return None

    def contains(self, key: int) -> bool:
        """Presence check with no side effects."""
        return key in self._sets[self._set_index(key)]

    def insert(self, key: int, entry: TlbEntry) -> Optional[int]:
        """Install a translation; returns the evicted key, if any."""
        return self.insert_at(self._set_index(key), key, entry)

    def insert_at(self, set_idx: int, key: int,
                  entry: TlbEntry) -> Optional[int]:
        """Install ``key`` into a set whose index the caller already has."""
        entries = self._sets[set_idx]
        evicted: Optional[int] = None
        if key in entries:
            del entries[key]
        elif len(entries) >= self._ways:
            evicted = next(iter(entries))
            del entries[evicted]
            slot = self._evictions
            slot.value += 1
            slot.touched = True
        entries[key] = entry
        slot = self._fills
        slot.value += 1
        slot.touched = True
        return evicted

    # -- batch-replay support -------------------------------------------------

    def batch_view(self) -> Tuple[Tuple[Dict[int, TlbEntry], ...], int, int]:
        """``(sets, set_mask, ways)`` for the batched replay engine.

        :mod:`repro.core.batch` vectorizes :meth:`_set_index` over whole
        vaddr columns with numpy and then probes the **live** set dicts
        directly, replicating :meth:`lookup`'s hit path (delete +
        reinsert, hits counter) bit-identically.  Exposing the storage
        through one accessor keeps that engine honest about what it
        depends on: dict-per-set storage in recency order, the
        :meth:`_set_index` hash, and ``ways``-bounded sets.
        """
        return self._sets, self._set_mask, self._ways

    # -- invalidation (TLB shootdown support) -------------------------------

    def invalidate_page(self, key: int) -> bool:
        """Drop one translation (shootdown of a single page)."""
        set_idx = self._set_index(key)
        if key in self._sets[set_idx]:
            del self._sets[set_idx][key]
            self.stats.inc("shootdowns")
            return True
        return False

    def invalidate_vm(self, vm_id: int) -> int:
        """Drop all translations of one VM (e.g. VM teardown)."""
        return self._drop(KEY_VM_FIELD_MASK, pack_context(vm_id, 0))

    def flush(self) -> int:
        """Full flush; returns the number of entries dropped."""
        dropped = len(self)
        for entries in self._sets:
            entries.clear()
        if dropped:
            self.stats.inc("shootdowns", dropped)
        return dropped

    def _drop(self, mask: int, bits: int) -> int:
        """Drop every key with ``key & mask == bits``; returns count."""
        # One flat scan over every set, no call per key.
        doomed = [(entries, key) for entries in self._sets if entries
                  for key in entries if key & mask == bits]
        for entries, key in doomed:
            del entries[key]
        if doomed:
            self.stats.inc("shootdowns", len(doomed))
        return len(doomed)

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def keys(self) -> List[TlbKey]:
        """All resident translations (tests and consistency checks)."""
        found: List[TlbKey] = []
        for entries in self._sets:
            found.extend(unpack_key(key) for key in entries)
        return found
