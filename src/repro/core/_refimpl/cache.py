"""Set-associative cache with TLB-aware line accounting.

The POM-TLB design hinges on TLB entries being **ordinary cacheable
memory**, so the data-cache model distinguishes two line kinds:

* ``data`` — regular program loads/stores (and page-table entries), and
* ``tlb``  — lines belonging to the POM-TLB (or TSB) address range.

Both kinds compete for the same sets under the same replacement policy —
exactly the paper's design — but are counted separately so experiments
can report TLB-entry hit ratios (Fig 9) and data-cache pollution.

The optional ``tlb_priority`` mode implements the Section 5.1 extension
(*TLB-aware caching*): when enabled, a ``tlb`` line is never chosen as a
victim while a ``data`` line exists in the set.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...common import addr
from ...common.config import CacheConfig
from ...common.stats import StatGroup
from ...cache.replacement import LruPolicy

DATA = "data"
TLB = "tlb"


class SetAssociativeCache:
    """One level of a write-allocate cache.

    The model tracks presence and recency, not contents: the simulator
    only needs hit/miss outcomes and latency.  Lookups and fills operate
    on byte addresses; alignment to 64 B lines is internal.
    """

    def __init__(self, config: CacheConfig, stats: StatGroup,
                 tlb_priority: bool = False) -> None:
        self.config = config
        self.stats = stats
        self.tlb_priority = tlb_priority
        self._num_sets = config.num_sets
        self._set_mask = self._num_sets - 1
        self._line_shift = addr.ilog2(config.line_bytes)
        # One {tag: kind} dict plus one LRU tracker per set.
        self._tags: Tuple[Dict[int, str], ...] = tuple({} for _ in range(self._num_sets))
        self._lru: Tuple[LruPolicy, ...] = tuple(LruPolicy() for _ in range(self._num_sets))

    # -- geometry ---------------------------------------------------------

    def _index_tag(self, address: int) -> Tuple[int, int]:
        line = address >> self._line_shift
        return line & self._set_mask, line >> addr.ilog2(self._num_sets)

    @property
    def latency(self) -> int:
        """Hit latency in CPU cycles."""
        return self.config.latency_cycles

    # -- operations ---------------------------------------------------------

    def lookup(self, address: int, kind: str = DATA) -> bool:
        """Probe for the line holding ``address``; updates recency on hit."""
        set_idx, tag = self._index_tag(address)
        tags = self._tags[set_idx]
        hit = tag in tags
        self.stats.inc(f"{kind}_hits" if hit else f"{kind}_misses")
        if hit:
            self._lru[set_idx].touch(tag)
        return hit

    def contains(self, address: int) -> bool:
        """Presence check with no side effects (no recency, no stats)."""
        set_idx, tag = self._index_tag(address)
        return tag in self._tags[set_idx]

    def fill(self, address: int, kind: str = DATA) -> Optional[int]:
        """Insert the line for ``address``; returns the evicted line address.

        Filling a line already present just refreshes recency (and its
        kind, which matters only if an address range is repurposed).
        """
        set_idx, tag = self._index_tag(address)
        tags = self._tags[set_idx]
        lru = self._lru[set_idx]
        evicted: Optional[int] = None
        if tag not in tags and len(tags) >= self.config.ways:
            victim = self._select_victim(set_idx)
            victim_kind = tags.pop(victim)
            lru.remove(victim)
            self.stats.inc(f"{victim_kind}_evictions")
            evicted = self._line_address(set_idx, victim)
        tags[tag] = kind
        lru.touch(tag)
        self.stats.inc(f"{kind}_fills")
        return evicted

    def _select_victim(self, set_idx: int) -> int:
        lru = self._lru[set_idx]
        if not self.tlb_priority:
            return lru.victim()
        tags = self._tags[set_idx]
        for tag in lru.keys():  # oldest first
            if tags[tag] == DATA:
                return tag
        return lru.victim()

    def _line_address(self, set_idx: int, tag: int) -> int:
        line = (tag << addr.ilog2(self._num_sets)) | set_idx
        return line << self._line_shift

    def invalidate(self, address: int) -> bool:
        """Drop the line holding ``address`` if present."""
        set_idx, tag = self._index_tag(address)
        if tag in self._tags[set_idx]:
            del self._tags[set_idx][tag]
            self._lru[set_idx].remove(tag)
            return True
        return False

    def flush(self) -> None:
        """Empty the whole cache."""
        for tags, lru in zip(self._tags, self._lru):
            for tag in list(tags):
                lru.remove(tag)
            tags.clear()

    # -- introspection ------------------------------------------------------

    def occupancy(self) -> Dict[str, int]:
        """Lines currently resident, split by kind."""
        counts = {DATA: 0, TLB: 0}
        for tags in self._tags:
            for kind in tags.values():
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    def hit_rate(self, kind: str = DATA) -> float:
        hits = self.stats[f"{kind}_hits"]
        total = hits + self.stats[f"{kind}_misses"]
        return hits / total if total else 0.0

    def __len__(self) -> int:
        return sum(len(tags) for tags in self._tags)
