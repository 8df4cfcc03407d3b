"""Unit tests for the radix page table."""

import pytest

from repro.common.errors import AddressError, TranslationFault
from repro.paging.page_table import PTE_BYTES, RadixPageTable
from tests.paging.helpers import (bump_allocator, mapped_pages, table_base,
                                  walk_ptes)


def make_table():
    return RadixPageTable(bump_allocator(), name="t")


class TestMapping:
    def test_small_page_walk_has_four_steps(self):
        pt = make_table()
        pt.map_page(0x1000, 0x200000)
        ptes, result, _ = walk_ptes(pt, 0x1234)
        assert len(ptes) == 4  # levels 4, 3, 2, 1
        assert result.host_frame == 0x200000 and not result.large

    def test_large_page_walk_has_three_steps(self):
        pt = make_table()
        pt.map_page(0x0, 0x400000, large=True)
        ptes, result, _ = walk_ptes(pt, 0x123456)
        assert len(ptes) == 3  # levels 4, 3, 2
        assert result.large

    def test_translate(self):
        pt = make_table()
        pt.map_page(0x5000, 0x200000)
        _, result, _ = walk_ptes(pt, 0x5123)
        assert result.translate(0x5123) == 0x200123

    def test_unmapped_raises_fault(self):
        pt = make_table()
        with pytest.raises(TranslationFault):
            walk_ptes(pt, 0x1000)

    def test_misaligned_frame_rejected(self):
        pt = make_table()
        with pytest.raises(AddressError):
            pt.map_page(0x1000, 0x200100)
        with pytest.raises(AddressError):
            pt.map_page(0x0, 0x1000, large=True)  # not 2MiB aligned

    def test_small_under_large_conflict_rejected(self):
        pt = make_table()
        pt.map_page(0x0, 0x400000, large=True)
        with pytest.raises(AddressError):
            pt.map_page(0x1000, 0x200000)  # same 2MiB region

    def test_large_over_small_conflict_rejected(self):
        pt = make_table()
        pt.map_page(0x1000, 0x200000)
        with pytest.raises(AddressError):
            pt.map_page(0x0, 0x400000, large=True)

    def test_remap_replaces_leaf(self):
        pt = make_table()
        pt.map_page(0x1000, 0x200000)
        pt.map_page(0x1000, 0x300000)
        assert pt.lookup(0x1000).frame == 0x300000
        assert mapped_pages(pt) == (1, 0)


class TestWalkAddresses:
    def test_pte_addresses_use_table_base_plus_index(self):
        pt = make_table()
        va = (3 << 39) | (5 << 30) | (7 << 21) | (9 << 12)
        pt.map_page(va, 0x200000)
        ptes, _, _ = walk_ptes(pt, va)
        assert ptes[0] == table_base(pt, 0, 4) + PTE_BYTES * 3
        for level, pte, index in zip((3, 2, 1), ptes[1:], (5, 7, 9)):
            base = table_base(pt, va, level)
            assert pte == base + PTE_BYTES * index

    def test_sibling_pages_share_tables(self):
        pt = make_table()
        pt.map_page(0x1000, 0x200000)
        tables_before = pt.table_count()
        pt.map_page(0x2000, 0x201000)  # same PT
        assert pt.table_count() == tables_before

    def test_distant_pages_allocate_new_tables(self):
        pt = make_table()
        pt.map_page(0x1000, 0x200000)
        before = pt.table_count()
        pt.map_page(1 << 40, 0x201000)
        assert pt.table_count() > before


class TestWalkFrom:
    """Walks that start at a PSC-supplied table base."""

    def test_walk_from_cached_level(self):
        pt = make_table()
        pt.map_page(0x1000, 0x200000)
        base = table_base(pt, 0x1000, 1)
        ptes, result, _ = walk_ptes(pt, 0x1000, 1, base)
        assert ptes == (base + PTE_BYTES * 1,)  # one level-1 step
        assert result.host_frame == 0x200000

    def test_walk_from_detects_stale_base(self):
        pt = make_table()
        pt.map_page(0x1000, 0x200000)
        ptes, result, walker = walk_ptes(pt, 0x1000, 1, 0xDEAD000)
        assert walker.stats["psc_stale"] == 1
        assert ptes == walk_ptes(pt, 0x1000)[0]  # re-walked from the root
        assert result.host_frame == 0x200000

    def test_walk_from_unmapped_subtree_faults(self):
        pt = make_table()
        pt.map_page(0x1000, 0x200000)
        with pytest.raises(TranslationFault):
            walk_ptes(pt, 1 << 40, 1, table_base(pt, 0, 4))


class TestUnmap:
    def test_unmap_small(self):
        pt = make_table()
        pt.map_page(0x1000, 0x200000)
        assert pt.unmap_page(0x1000)
        assert pt.lookup(0x1000) is None
        assert mapped_pages(pt) == (0, 0)

    def test_unmap_large(self):
        pt = make_table()
        pt.map_page(0x0, 0x400000, large=True)
        assert pt.unmap_page(0x0, large=True)
        assert mapped_pages(pt) == (0, 0)

    def test_unmap_missing_returns_false(self):
        pt = make_table()
        assert not pt.unmap_page(0x1000)


class TestLookup:
    def test_lookup_small_and_large(self):
        pt = make_table()
        pt.map_page(0x1000, 0x200000)
        pt.map_page(1 << 30, 0x400000, large=True)
        assert not pt.lookup(0x1000).large
        assert pt.lookup((1 << 30) + 12345).large

    def test_lookup_unmapped_is_none(self):
        pt = make_table()
        assert pt.lookup(0x1000) is None

    def test_mapped_pages_counts(self):
        pt = make_table()
        pt.map_page(0x1000, 0x200000)
        pt.map_page(1 << 30, 0x400000, large=True)
        assert mapped_pages(pt) == (1, 1)
