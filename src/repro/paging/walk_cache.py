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

Each cache is a plain insertion-ordered dict (oldest first) with its
VA prefix shift and capacity.  The native and nested walkers probe and
refill them inline, iterating the plans of
:meth:`~PagingStructureCache.probe_order` and
:meth:`~PagingStructureCache.refill_plans`; their hit and fill
counters are pinned, with every other counter, by the golden counter
fixtures in ``tests/golden/``.
"""

from __future__ import annotations

from ..common import addr
from ..common.config import WalkCacheConfig
from ..common.stats import StatGroup

#: (cache name, entry count attr, VA prefix shift, walk start level on hit)
_LEVELS = (
    ("pde", "pde_entries", addr.LARGE_PAGE_SHIFT, 1),         # VA[47:21]
    ("pdp", "pdp_entries", addr.LARGE_PAGE_SHIFT + 9, 2),     # VA[47:30]
    ("pml4", "pml4_entries", addr.LARGE_PAGE_SHIFT + 18, 3),  # VA[47:39]
)


class PagingStructureCache:
    """The trio of MMU caches consulted before a page walk."""

    def __init__(self, config: WalkCacheConfig, stats: StatGroup) -> None:
        self.config = config
        self.stats = stats
        #: level -> (entries, VA prefix shift, capacity); index 0 unused.
        #: Recency lives in each dict's insertion order, oldest first: a
        #: hit re-inserts its key at the end, the victim is the first key.
        self._by_level = (None,) + tuple(
            ({}, shift, getattr(config, attr))
            for _name, attr, shift, _level in _LEVELS)

    def probe_order(self) -> tuple:
        """``(entries, prefix shift, level, hits counter)`` of each cache
        that can hold an entry, deepest first: the order a walk probes
        them in.  A zero-capacity cache never hits, so it is left out;
        the entry dicts are never rebound.
        """
        return tuple((entries, shift, level,
                      self.stats.counter(f"{name}_hits"))
                     for name, _, _, level in _LEVELS
                     for entries, shift, capacity in (self._by_level[level],)
                     if capacity)

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
            tuple(tuple((entries, shift, tables[level], capacity)
                        for level in range(2 if large else 1,
                                           addr.RADIX_LEVELS)
                        for entries, shift, capacity in (self._by_level[level],)
                        if capacity and level != start)
                  for large in (False, True))
            for start in range(addr.RADIX_LEVELS + 1))

    def invalidate(self, vaddr: int) -> None:
        """Drop every prefix entry covering ``vaddr`` (shootdown)."""
        for entries, shift, _capacity in self._by_level[1:]:
            entries.pop(vaddr >> shift, None)

    def flush(self) -> None:
        for entries, _shift, _capacity in self._by_level[1:]:
            entries.clear()

    def sizes(self) -> dict:
        """Occupancy per sub-cache (tests and debugging)."""
        return {name: len(self._by_level[level][0])
                for name, _, _, level in _LEVELS}
