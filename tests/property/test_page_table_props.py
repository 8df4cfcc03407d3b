"""Property-based tests for the radix page table (walked natively)."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.common import addr
from repro.paging.page_table import RadixPageTable
from tests.paging.helpers import mapped_pages, walk_ptes


def make_table():
    counter = itertools.count()
    return RadixPageTable(lambda: 1 << 40 | (next(counter) * 4096), name="t")


# Page-granular mappings: (large-page VPN, is-large).  Using 2 MiB
# regions as the unit guarantees generated mappings never conflict.
mappings = st.lists(
    st.tuples(st.integers(0, 1 << 20), st.booleans()),
    max_size=40, unique_by=lambda m: m[0])


class TestMappingProperties:
    @settings(max_examples=40, deadline=None)
    @given(mappings, st.data())
    def test_walk_translates_what_was_mapped(self, regions, data):
        table = make_table()
        frames = {}
        for index, (region, large) in enumerate(regions):
            va = region << addr.LARGE_PAGE_SHIFT
            frame = (index + 1) << addr.LARGE_PAGE_SHIFT
            table.map_page(va, frame, large=large)
            frames[(region, large)] = frame
        for (region, large), frame in frames.items():
            offset = data.draw(st.integers(0, addr.page_size(large) - 1))
            va = (region << addr.LARGE_PAGE_SHIFT) + offset
            steps, result, _ = walk_ptes(table, va)
            if large:
                assert result.translate(va) == frame + offset
                assert len(steps) == 3
            else:
                # Small page mapped at the region's first 4 KiB only.
                if offset < addr.SMALL_PAGE_SIZE:
                    assert result.translate(va) == frame + offset
                    assert len(steps) == 4

    @settings(max_examples=40, deadline=None)
    @given(mappings)
    def test_lookup_agrees_with_walk(self, regions):
        table = make_table()
        for index, (region, large) in enumerate(regions):
            va = region << addr.LARGE_PAGE_SHIFT
            table.map_page(va, (index + 1) << addr.LARGE_PAGE_SHIFT,
                           large=large)
        for region, large in regions:
            va = region << addr.LARGE_PAGE_SHIFT
            _steps, result, _ = walk_ptes(table, va)
            assert table.lookup(va) == (result.host_frame, result.large)

    @settings(max_examples=40, deadline=None)
    @given(mappings)
    def test_unmap_restores_absence(self, regions):
        table = make_table()
        for index, (region, large) in enumerate(regions):
            va = region << addr.LARGE_PAGE_SHIFT
            table.map_page(va, (index + 1) << addr.LARGE_PAGE_SHIFT,
                           large=large)
        for region, large in regions:
            va = region << addr.LARGE_PAGE_SHIFT
            assert table.unmap_page(va, large=large)
            assert table.lookup(va) is None
        assert mapped_pages(table) == (0, 0)

    @settings(max_examples=40, deadline=None)
    @given(mappings)
    def test_mapped_pages_counts(self, regions):
        table = make_table()
        for index, (region, large) in enumerate(regions):
            table.map_page(region << addr.LARGE_PAGE_SHIFT,
                           (index + 1) << addr.LARGE_PAGE_SHIFT, large=large)
        small, large_count = mapped_pages(table)
        assert small == sum(1 for _r, lg in regions if not lg)
        assert large_count == sum(1 for _r, lg in regions if lg)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1 << 20))
    def test_pte_addresses_are_unique_per_walk(self, region):
        table = make_table()
        va = region << addr.LARGE_PAGE_SHIFT
        table.map_page(va, 1 << addr.LARGE_PAGE_SHIFT)
        ptes, _, _ = walk_ptes(table, va)
        assert len(set(ptes)) == len(ptes)
