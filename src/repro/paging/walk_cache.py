"""Paging-structure caches (PSCs) — the MMU caches of Table 1.

A PSC entry caches, for a VA prefix, the base address of the
**next-level table**, letting the walker skip the upper levels of the
radix tree:

* PML4 cache: VA[47:39] -> level-3 (PDPT) table base  (skips 1 access)
* PDP cache:  VA[47:30] -> level-2 (PD) table base    (skips 2 accesses)
* PDE cache:  VA[47:21] -> level-1 (PT) table base    (skips 3 accesses)

In virtualized mode the same structure is used as a *combined* cache:
the cached table base is the **host-physical** address of the guest
table, so a hit also skips the nested host walks of the skipped guest
levels — matching how real MMU caches interact with EPT.

Capacities follow Table 1 (2 / 4 / 32 entries), fully associative, LRU.

Every page walk starts with a PSC probe, so :meth:`lookup` is unrolled
(deepest cache first) over plain insertion-ordered dicts with counter
slots resolved at construction, and the nested walker, which probes two
caches per walk, inlines the probe and the refills from
:meth:`~PagingStructureCache.probe_order` and
:meth:`~PagingStructureCache.refill_plans`; behaviour is bit-identical
to the frozen reference copy in :mod:`repro.core._refimpl.walk_cache`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..common import addr
from ..common.config import WalkCacheConfig
from ..common.stats import StatGroup

#: (cache name, entry count attr, VA prefix shift, walk start level on hit)
_LEVELS = (
    ("pde", "pde_entries", addr.LARGE_PAGE_SHIFT, 1),         # VA[47:21]
    ("pdp", "pdp_entries", addr.LARGE_PAGE_SHIFT + 9, 2),     # VA[47:30]
    ("pml4", "pml4_entries", addr.LARGE_PAGE_SHIFT + 18, 3),  # VA[47:39]
)

_SHIFT_PDE = _LEVELS[0][2]
_SHIFT_PDP = _LEVELS[1][2]
_SHIFT_PML4 = _LEVELS[2][2]


class _PrefixCache:
    """One fully associative LRU cache over VA prefixes.

    Recency lives in the dict's insertion order (oldest first): a hit
    re-inserts the key at the end, the victim is the first key.
    """

    __slots__ = ("capacity", "shift", "_entries")

    def __init__(self, capacity: int, shift: int) -> None:
        self.capacity = capacity
        self.shift = shift
        self._entries: Dict[int, int] = {}

    def lookup(self, vaddr: int) -> Optional[int]:
        entries = self._entries
        key = vaddr >> self.shift
        base = entries.get(key)
        if base is not None and next(reversed(entries)) != key:
            entries[key] = entries.pop(key)  # move to most-recent position
        return base

    def fill(self, vaddr: int, table_base: int) -> None:
        if self.capacity == 0:
            return
        entries = self._entries
        key = vaddr >> self.shift
        resident = entries.get(key)
        if resident is not None:
            # Already resident with the same base AND already the
            # most-recent entry: del + re-insert would rebuild the exact
            # same dict.  PML4/PDP refills hit this on nearly every walk
            # once the working set's upper levels are cached.
            if resident == table_base and next(reversed(entries)) == key:
                return
            del entries[key]  # re-insert below refreshes recency
        elif len(entries) >= self.capacity:
            del entries[next(iter(entries))]  # oldest
        entries[key] = table_base

    def invalidate(self, vaddr: int) -> None:
        self._entries.pop(vaddr >> self.shift, None)

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class PagingStructureCache:
    """The trio of MMU caches consulted before a page walk."""

    def __init__(self, config: WalkCacheConfig, stats: StatGroup) -> None:
        self.config = config
        self.stats = stats
        self._pde = _PrefixCache(config.pde_entries, _LEVELS[0][2])
        self._pdp = _PrefixCache(config.pdp_entries, _LEVELS[1][2])
        self._pml4 = _PrefixCache(config.pml4_entries, _LEVELS[2][2])
        #: level -> cache (index 0 unused); level order matches _LEVELS.
        self._by_level = (None, self._pde, self._pdp, self._pml4)
        self._hit_latency = config.hit_latency_cycles
        # Entry-dict aliases for :meth:`lookup` — the sub-caches never
        # rebind ``_entries`` (flush() clears it in place), so probing
        # the dicts directly skips three call frames per walk.
        self._pde_entries = self._pde._entries
        self._pdp_entries = self._pdp._entries
        self._pml4_entries = self._pml4._entries
        self._pde_hits = stats.counter("pde_hits")
        self._pdp_hits = stats.counter("pdp_hits")
        self._pml4_hits = stats.counter("pml4_hits")
        self._misses = stats.counter("misses")

    def lookup(self, vaddr: int) -> Tuple[int, Optional[int], int]:
        """Find the deepest cached table for ``vaddr``.

        Returns ``(start_level, table_base, lookup_cycles)``; when nothing
        hits, ``start_level`` is 4 (walk from the root) and ``table_base``
        is ``None``.  The cycle cost covers probing the PSC hierarchy.
        """
        cycles = self._hit_latency
        # _PrefixCache.lookup inlined per level (deepest first): probe
        # the entry dict, refresh recency on hit unless already newest.
        entries = self._pde_entries
        key = vaddr >> _SHIFT_PDE
        base = entries.get(key)
        if base is not None:
            if next(reversed(entries)) != key:
                entries[key] = entries.pop(key)
            slot = self._pde_hits
            slot.value += 1
            slot.touched = True
            return 1, base, cycles
        entries = self._pdp_entries
        key = vaddr >> _SHIFT_PDP
        base = entries.get(key)
        if base is not None:
            if next(reversed(entries)) != key:
                entries[key] = entries.pop(key)
            slot = self._pdp_hits
            slot.value += 1
            slot.touched = True
            return 2, base, cycles
        entries = self._pml4_entries
        key = vaddr >> _SHIFT_PML4
        base = entries.get(key)
        if base is not None:
            if next(reversed(entries)) != key:
                entries[key] = entries.pop(key)
            slot = self._pml4_hits
            slot.value += 1
            slot.touched = True
            return 3, base, cycles
        slot = self._misses
        slot.value += 1
        slot.touched = True
        return addr.RADIX_LEVELS, None, cycles

    def probe_order(self) -> tuple:
        """``(entries, prefix shift, level, hits counter)`` of each cache
        that can hold an entry, deepest first: :meth:`lookup`'s probe
        order, for a walker that inlines it.  A zero-capacity cache never
        hits, so it is left out; the entry dicts are never rebound.
        """
        return tuple((pc._entries, pc.shift, level,
                      self.stats.counter(f"{name}_hits"))
                     for name, _, _, level in _LEVELS
                     for pc in (self._by_level[level],) if pc.capacity)

    def refill_plans(self, tables) -> tuple:
        """``plans[start][large]``: ``(entries, prefix shift, level table,
        capacity)`` of each cache a walk that started at level ``start``
        refills, ascending, for a small or large leaf.

        ``tables`` is the walked table's level -> {VA prefix: base}
        storage (a prefix shift equals its level's table shift).
        Zero-capacity caches are left out.  So is level ``start``: a
        probe that hit there and passed the walker's base check left
        that entry current and newest, so its refill would change
        nothing (a stale hit re-walks from the root, ``start`` 4).
        """
        return tuple(
            tuple(tuple((pc._entries, pc.shift, tables[level], pc.capacity)
                        for level in range(2 if large else 1,
                                           addr.RADIX_LEVELS)
                        for pc in (self._by_level[level],)
                        if pc.capacity and level != start)
                  for large in (False, True))
            for start in range(addr.RADIX_LEVELS + 1))

    def fill(self, vaddr: int, level: int, table_base: int) -> None:
        """Cache the base of the level-``level`` table covering ``vaddr``."""
        if not 1 <= level <= 3:
            raise ValueError(f"PSCs cache table levels 1..3, got {level}")
        self._by_level[level].fill(vaddr, table_base)

    def invalidate(self, vaddr: int) -> None:
        """Drop every prefix entry covering ``vaddr`` (shootdown)."""
        self._pde.invalidate(vaddr)
        self._pdp.invalidate(vaddr)
        self._pml4.invalidate(vaddr)

    def flush(self) -> None:
        self._pde.flush()
        self._pdp.flush()
        self._pml4.flush()

    def sizes(self) -> dict:
        """Occupancy per sub-cache (tests and debugging)."""
        return {"pde": len(self._pde), "pdp": len(self._pdp),
                "pml4": len(self._pml4)}
