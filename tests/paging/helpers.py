"""Shared helpers of the paging tests: a recording PTE reader, PSC
planting through the walkers' probe plans, a native walk that reports
every PTE address it read, and table bases and leaf counts read off a
radix table's storage."""

import itertools

from repro.common import addr
from repro.common.config import WalkCacheConfig
from repro.common.stats import StatGroup
from repro.paging.walk_cache import PagingStructureCache
from repro.paging.walker import NativeWalker


class CountingMemory:
    """PTE access stub: fixed cost, records every address."""

    def __init__(self, cost=10):
        self.cost = cost
        self.addresses = []

    def __call__(self, paddr):
        self.addresses.append(paddr)
        return self.cost


def table_base(table, vaddr, level):
    """Base of the level-``level`` table covering ``vaddr`` (level 4: the
    root), or None when that table was never created."""
    return table._tables[level].get((vaddr & ((1 << 48) - 1))
                                    >> (12 + 9 * level))


def mapped_pages(table):
    """(small, large) leaf counts of ``table``."""
    return len(table._small), len(table._large)


def bump_allocator(start=0x100000):
    counter = itertools.count()
    return lambda: start + next(counter) * addr.SMALL_PAGE_SIZE


def make_psc(**overrides):
    return PagingStructureCache(WalkCacheConfig(**overrides), StatGroup("psc"))


def plant(psc, vaddr, level, base):
    """Make ``base`` the newest entry of the level-``level`` cache for
    ``vaddr``'s prefix, through the entry dicts a walk probes."""
    for entries, shift, hit_level, _hits in psc.probe_order():
        if hit_level == level:
            entries.pop(vaddr >> shift, None)
            entries[vaddr >> shift] = base
            return
    raise AssertionError(f"no level-{level} cache with capacity")


def cached(psc, vaddr, level):
    """The base the level-``level`` cache holds for ``vaddr``, or None."""
    for entries, shift, hit_level, _hits in psc.probe_order():
        if hit_level == level:
            return entries.get(vaddr >> shift)
    return None


def make_walker(table, cost=10, **psc_config):
    """A native walker over ``table`` with an empty PSC of its own."""
    mem = CountingMemory(cost)
    walker = NativeWalker(table, make_psc(**psc_config), mem,
                          StatGroup("walker"))
    return walker, mem


def walk_ptes(table, vaddr, level=4, base=None):
    """Walk ``vaddr`` in ``table`` from a PSC that holds only ``base`` at
    ``level`` (level 4: an empty PSC, a walk from the root).

    Returns the PTE addresses read, in order, the walk's result and the
    walker.
    """
    walker, mem = make_walker(table)
    if level != 4:
        plant(walker.psc, vaddr, level, base)
    result = walker.walk(vaddr)
    return tuple(mem.addresses), result, walker
