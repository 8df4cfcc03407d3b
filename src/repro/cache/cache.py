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

Recency is stored in the set dicts themselves (oldest first, newest
last, Python dicts preserve insertion order): a hit re-inserts the tag
at the end, the LRU victim is the first key.  This produces the exact
victim sequence of the previous per-set ``LruPolicy`` objects while
halving the bookkeeping on the per-access path.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..common import addr
from ..common.config import CacheConfig
from ..common.stats import StatGroup

DATA = "data"
TLB = "tlb"


def priority_victim(tags: Dict[int, str]) -> int:
    """The ``tlb_priority`` victim of a full set: its oldest data line,
    or the oldest line when every line is a TLB line."""
    for tag, kind in tags.items():  # oldest first
        if kind == DATA:
            return tag
    return next(iter(tags))


class SetAssociativeCache:
    """One level of a write-allocate cache.

    The model tracks presence, recency and line kind, not contents: the
    simulator only needs hit/miss outcomes and latency, so a store costs
    what a load costs.  Lookups and fills operate on byte addresses;
    alignment to 64 B lines is internal.
    """

    def __init__(self, config: CacheConfig, stats: StatGroup,
                 tlb_priority: bool = False) -> None:
        self.config = config
        self.stats = stats
        self.tlb_priority = tlb_priority
        self._num_sets = config.num_sets
        self._set_mask = self._num_sets - 1
        self._line_shift = addr.ilog2(config.line_bytes)
        self._set_shift = addr.ilog2(self._num_sets)
        self._ways = config.ways
        # One {tag: kind} dict per set, ordered oldest -> most recent.
        # (A list comprehension: a generator resumes a frame per set.)
        self._tags: Tuple[Dict[int, str], ...] = tuple(
            [{} for _ in range(self._num_sets)])
        # Per-kind counter slots, resolved once (see common.stats).  Held
        # as direct attributes: the hot path selects with one string
        # compare (identity fast path — callers pass the module
        # constants) instead of hashing into a dict per access.
        self._data_hits = stats.counter(f"{DATA}_hits")
        self._tlb_hits = stats.counter(f"{TLB}_hits")
        self._data_misses = stats.counter(f"{DATA}_misses")
        self._tlb_misses = stats.counter(f"{TLB}_misses")
        self._data_fills = stats.counter(f"{DATA}_fills")
        self._tlb_fills = stats.counter(f"{TLB}_fills")
        self._data_evictions = stats.counter(f"{DATA}_evictions")
        self._tlb_evictions = stats.counter(f"{TLB}_evictions")

    # -- geometry ---------------------------------------------------------

    @property
    def latency(self) -> int:
        """Hit latency in CPU cycles."""
        return self.config.latency_cycles

    # -- operations ---------------------------------------------------------

    def lookup(self, address: int, kind: str = DATA) -> bool:
        """Probe for the line holding ``address``; updates recency on hit."""
        line = address >> self._line_shift
        tags = self._tags[line & self._set_mask]
        tag = line >> self._set_shift
        if tag in tags:
            slot = self._data_hits if kind == DATA else self._tlb_hits
            slot.value += 1
            slot.touched = True
            if next(reversed(tags)) != tag:
                tags[tag] = tags.pop(tag)  # move to most-recent position
            return True
        slot = self._data_misses if kind == DATA else self._tlb_misses
        slot.value += 1
        slot.touched = True
        return False

    def contains(self, address: int) -> bool:
        """Presence check with no side effects (no recency, no stats)."""
        line = address >> self._line_shift
        return (line >> self._set_shift) in self._tags[line & self._set_mask]

    def fill(self, address: int, kind: str = DATA) -> Optional[int]:
        """Insert the line for ``address``; returns the evicted line address.

        Filling a line already present just refreshes recency (and its
        kind, which matters only if an address range is repurposed).
        """
        line = address >> self._line_shift
        set_idx = line & self._set_mask
        tags = self._tags[set_idx]
        tag = line >> self._set_shift
        evicted: Optional[int] = None
        if tag in tags:
            del tags[tag]  # the re-insert below refreshes recency
        elif len(tags) >= self._ways:
            victim = (priority_victim(tags) if self.tlb_priority
                      else next(iter(tags)))  # oldest
            victim_kind = tags.pop(victim)
            slot = (self._data_evictions if victim_kind == DATA
                    else self._tlb_evictions)
            slot.value += 1
            slot.touched = True
            evicted = ((victim << self._set_shift) | set_idx) << self._line_shift
        tags[tag] = kind
        slot = self._data_fills if kind == DATA else self._tlb_fills
        slot.value += 1
        slot.touched = True
        return evicted

    def _line_address(self, set_idx: int, tag: int) -> int:
        line = (tag << self._set_shift) | set_idx
        return line << self._line_shift

    def invalidate(self, address: int) -> bool:
        """Drop the line holding ``address`` if present."""
        line = address >> self._line_shift
        tags = self._tags[line & self._set_mask]
        tag = line >> self._set_shift
        if tag in tags:
            del tags[tag]
            return True
        return False

    def flush(self) -> None:
        """Empty the whole cache."""
        for tags in self._tags:
            tags.clear()

    # -- introspection ------------------------------------------------------

    def resident_lines(self, kind: Optional[str] = None):
        """Yield the line address of every resident line (optionally by kind)."""
        for set_idx, tags in enumerate(self._tags):
            for tag, line_kind in tags.items():
                if kind is None or line_kind == kind:
                    yield self._line_address(set_idx, tag)

    def set_occupancies(self):
        """Yield ``(set_idx, resident_count)`` per non-empty set."""
        for set_idx, tags in enumerate(self._tags):
            if tags:
                yield set_idx, len(tags)

    def occupancy(self) -> Dict[str, int]:
        """Lines currently resident, split by kind."""
        counts = {DATA: 0, TLB: 0}
        for tags in self._tags:
            for kind in tags.values():
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    def __len__(self) -> int:
        return sum(len(tags) for tags in self._tags)
