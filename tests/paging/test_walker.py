"""Unit tests for the native (1-D) page walker."""

import pytest

from repro.common import addr
from repro.common.errors import TranslationFault
from repro.paging.page_table import RadixPageTable
from tests.paging import helpers
from tests.paging.helpers import cached, plant, table_base


def make_walker(cost=10):
    pt = RadixPageTable(helpers.bump_allocator(), name="t")
    walker, mem = helpers.make_walker(pt, cost)
    return walker, pt, walker.psc, mem


class TestColdWalk:
    def test_cold_small_walk_is_four_refs(self):
        walker, pt, _, mem = make_walker()
        pt.map_page(0x1000, 0x200000)
        outcome = walker.walk(0x1234)
        assert outcome.memory_refs == 4
        assert len(mem.addresses) == 4
        assert outcome.translate(0x1234) == 0x200234

    def test_cold_large_walk_is_three_refs(self):
        walker, pt, _, _ = make_walker()
        pt.map_page(0x0, 0x400000, large=True)
        outcome = walker.walk(0x1234)
        assert outcome.memory_refs == 3
        assert outcome.large

    def test_cycles_include_psc_probe_and_refs(self):
        walker, pt, _, _ = make_walker(cost=10)
        pt.map_page(0x1000, 0x200000)
        outcome = walker.walk(0x1234)
        assert outcome.cycles == 2 + 4 * 10  # PSC probe + 4 PTE accesses


class TestPscAcceleration:
    def test_warm_walk_is_one_ref(self):
        walker, pt, _, _ = make_walker()
        pt.map_page(0x1000, 0x200000)
        walker.walk(0x1000)
        outcome = walker.walk(0x1000)
        assert outcome.memory_refs == 1  # PDE$ hit: only the PT access

    def test_neighbouring_page_reuses_pde_entry(self):
        walker, pt, _, _ = make_walker()
        pt.map_page(0x1000, 0x200000)
        pt.map_page(0x2000, 0x201000)
        walker.walk(0x1000)
        assert walker.walk(0x2000).memory_refs == 1

    def test_large_page_warm_walk_is_one_ref(self):
        walker, pt, _, _ = make_walker()
        pt.map_page(0x0, 0x400000, large=True)
        walker.walk(0x0)
        outcome = walker.walk(0x1000)
        assert outcome.memory_refs == 1  # PDP$ hit -> PD access only

    def test_remapped_page_keeps_its_pde_entry(self):
        walker, pt, _, _ = make_walker()
        pt.map_page(0x1000, 0x200000)
        walker.walk(0x1000)
        # A new leaf under the same tables: the cached base stays valid.
        pt.unmap_page(0x1000)
        pt.map_page(0x1000, 0x300000)
        outcome = walker.walk(0x1000)
        assert outcome.memory_refs == 1
        assert walker.stats["psc_stale"] == 0
        assert outcome.translate(0x1000) == 0x300000


class TestStats:
    def test_walk_counters(self):
        walker, pt, _, _ = make_walker()
        pt.map_page(0x1000, 0x200000)
        walker.walk(0x1000)
        walker.walk(0x1000)
        assert walker.stats["walks"] == 2
        assert walker.stats["walk_refs"] == 5  # 4 cold + 1 warm


class TestErrorPaths:
    """A stale PSC base is re-walked from the root; unmapped faults."""

    def test_stale_psc_base_rewalks_from_root(self):
        walker, pt, psc, mem = make_walker()
        pt.map_page(0x1000, 0x200000)
        real = table_base(pt, 0x1000, 1)
        # A PDE-cache entry whose base is not the live level-1 table.
        plant(psc, 0x1000, 1, real + addr.SMALL_PAGE_SIZE)
        outcome = walker.walk(0x1234)
        assert walker.stats["psc_stale"] == 1
        assert outcome.memory_refs == 4
        assert mem.addresses[0] == table_base(pt, 0, 4)
        assert outcome.translate(0x1234) == 0x200234
        # The stale probe counted as a hit; the refill replaced the base.
        assert psc.stats["pde_hits"] == 1
        assert cached(psc, 0x1000, 1) == real

    def test_unmapped_address_faults_in_its_table(self):
        walker, pt, _, _ = make_walker()
        pt.map_page(0x1000, 0x200000)
        walker.walk(0x1000)
        with pytest.raises(TranslationFault) as info:
            walker.walk(0x4000_0000)
        assert info.value.space == pt.name
        assert info.value.vaddr == 0x4000_0000
