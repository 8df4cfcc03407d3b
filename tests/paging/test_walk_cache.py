"""Unit tests for the paging-structure caches, through native walks.

A walk probes the PSCs deepest first and refills them from the table
it walked, so every check here plants entries (or walks to fill them)
and reads the outcome off the walk: where it started (its reference
count), which hit counter moved, and what the caches hold afterwards.
"""

from repro.common import addr
from repro.paging.page_table import PTE_BYTES, RadixPageTable
from tests.paging.helpers import (bump_allocator, cached, make_walker, plant,
                                  table_base)

_GIB = 1 << 30


def setup(*vaddrs, **psc_config):
    """A walker over a table mapping one small page at each address."""
    pt = RadixPageTable(bump_allocator(), name="t")
    for frame, va in enumerate(vaddrs, start=1):
        pt.map_page(va, frame << addr.LARGE_PAGE_SHIFT)
    walker, mem = make_walker(pt, **psc_config)
    return walker, pt, walker.psc, mem


class TestLookup:
    def test_cold_lookup_starts_at_root(self):
        walker, pt, psc, mem = setup(0x1000)
        outcome = walker.walk(0x1000)
        assert outcome.memory_refs == 4
        assert mem.addresses[0] == table_base(pt, 0, 4)
        assert outcome.cycles == 2 + 4 * 10  # PSC probe + 4 PTE reads
        assert psc.stats["misses"] == 1

    def test_pde_hit_starts_at_level_1(self):
        walker, pt, psc, mem = setup(0x1000)
        base = table_base(pt, 0x1000, 1)
        plant(psc, 0x1000, 1, base)
        outcome = walker.walk(0x1FFF)  # same 2MiB prefix
        assert outcome.memory_refs == 1
        assert mem.addresses == [base + PTE_BYTES * 1]
        assert psc.stats["pde_hits"] == 1

    def test_deeper_cache_wins(self):
        walker, pt, psc, _ = setup(0x1000)
        plant(psc, 0x1000, 3, table_base(pt, 0x1000, 3))
        plant(psc, 0x1000, 1, table_base(pt, 0x1000, 1))
        assert walker.walk(0x1000).memory_refs == 1
        assert psc.stats["pde_hits"] == 1
        assert psc.stats["pml4_hits"] == 0

    def test_pdp_hit_starts_at_level_2(self):
        va = 0x1000 + addr.LARGE_PAGE_SIZE  # same 1GiB as 0x1000
        walker, pt, psc, mem = setup(0x1000, va)
        plant(psc, 0x1000, 2, table_base(pt, 0x1000, 2))
        assert walker.walk(va).memory_refs == 2
        assert mem.addresses[0] == table_base(pt, va, 2) + PTE_BYTES * 1
        assert psc.stats["pdp_hits"] == 1

    def test_prefix_mismatch_misses(self):
        va = 0x1000 + addr.LARGE_PAGE_SIZE
        walker, pt, psc, _ = setup(0x1000, va)
        plant(psc, 0x1000, 1, table_base(pt, 0x1000, 1))
        assert walker.walk(va).memory_refs == 4
        assert psc.stats["misses"] == 1


class TestCapacityAndLru:
    def test_pml4_capacity_is_two(self):
        slots = [i << 39 for i in range(3)]
        walker, _, psc, _ = setup(*slots, _GIB, slots[2] + _GIB)
        for va in slots:
            walker.walk(va)
        assert psc.sizes()["pml4"] == 2
        # Oldest (slot 0) evicted: a new 1GiB region under it walks
        # from the root, one under slot 2 from its PML4 entry.
        assert walker.walk(_GIB).memory_refs == 4
        assert walker.walk(slots[2] + _GIB).memory_refs == 3

    def test_lru_refresh_on_hit(self):
        walker, _, psc, _ = setup(0, 1 << 39, 2 << 39, _GIB, 2 * _GIB,
                                  (1 << 39) + _GIB)
        walker.walk(0)
        walker.walk(1 << 39)
        assert walker.walk(_GIB).memory_refs == 3  # refreshes slot 0
        walker.walk(2 << 39)                       # evicts slot 1
        assert cached(psc, 0, 3) is not None
        assert cached(psc, 1 << 39, 3) is None
        assert walker.walk(2 * _GIB).memory_refs == 3
        assert walker.walk((1 << 39) + _GIB).memory_refs == 4

    def test_zero_capacity_never_fills(self):
        walker, _, psc, _ = setup(0x1000, _GIB, pml4_entries=0)
        walker.walk(0x1000)
        assert psc.sizes()["pml4"] == 0
        assert [level for _, _, level, _ in psc.probe_order()] == [1, 2]
        assert walker.walk(_GIB).memory_refs == 4


class TestFillValidation:
    def test_fill_rejects_root_level(self):
        """PSCs cache levels 1..3: no probe or refill plan names the
        root, whatever level a walk starts at."""
        _, pt, psc, _ = setup(0x1000)
        assert [level for _, _, level, _ in psc.probe_order()] == [1, 2, 3]
        refilled = {id(tbl) for plans in psc.refill_plans(pt._tables)
                    for plan in plans for _, _, tbl, _ in plan}
        assert refilled == {id(pt._tables[level]) for level in (1, 2, 3)}

    def test_refill_same_prefix_updates(self):
        walker, pt, psc, _ = setup(0x1000)
        plant(psc, 0x1000, 1, table_base(pt, 0x1000, 1))
        plant(psc, 0x1000, 3, 0xDEAD000)
        assert walker.walk(0x1000).memory_refs == 1  # the PDE entry wins
        assert cached(psc, 0x1000, 3) == table_base(pt, 0x1000, 3)
        assert psc.sizes()["pml4"] == 1


class TestInvalidate:
    def test_invalidate_drops_all_levels(self):
        walker, _, psc, _ = setup(0x1000)
        walker.walk(0x1000)
        assert psc.sizes() == {"pde": 1, "pdp": 1, "pml4": 1}
        psc.invalidate(0x1000)
        assert psc.sizes() == {"pde": 0, "pdp": 0, "pml4": 0}
        assert walker.walk(0x1000).memory_refs == 4

    def test_flush(self):
        walker, _, psc, _ = setup(0x1000, _GIB)
        walker.walk(0x1000)
        walker.walk(_GIB)
        psc.flush()
        assert psc.sizes() == {"pde": 0, "pdp": 0, "pml4": 0}
        assert walker.walk(0x1000).memory_refs == 4
