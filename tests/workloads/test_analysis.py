"""Unit tests for the trace-analysis toolkit."""

import pytest

from repro.common import addr
from repro.workloads.analysis import (
    estimate_tlb_miss_rate,
    page_popularity,
    reuse_distance_histogram,
    summarize,
)
from repro.workloads.trace import CoreStream, MemoryReference


def stream_of(pages, writes=None):
    refs = []
    for i, page in enumerate(pages):
        refs.append(MemoryReference(
            (i + 1) * 10, page * addr.SMALL_PAGE_SIZE,
            bool(writes and i in writes)))
    return CoreStream(core=0, vm_id=0, asid=1, references=refs)


class TestSummarize:
    def test_footprint(self):
        summary = summarize(stream_of([0, 1, 2, 1, 0]))
        assert summary.footprint_pages == 3
        assert summary.footprint_bytes == 3 * 4096
        assert summary.references == 5

    def test_write_fraction(self):
        summary = summarize(stream_of([0, 1, 2, 3], writes={0, 1}))
        assert summary.write_fraction == 0.5

    def test_refs_per_page_touch(self):
        # Pages 0,0,0,1: two page touches over four refs.
        summary = summarize(stream_of([0, 0, 0, 1]))
        assert summary.refs_per_page_touch == 2.0

    def test_empty_stream(self):
        summary = summarize(CoreStream(0, 0, 1))
        assert summary.references == 0
        assert summary.write_fraction == 0.0


class TestPagePopularity:
    def test_top_pages(self):
        top = page_popularity(stream_of([5, 5, 5, 7, 7, 9]), top=2)
        assert top == [(5, 3), (7, 2)]


class TestReuseDistance:
    def test_cold_touches_counted(self):
        hist = reuse_distance_histogram(stream_of([0, 1, 2]))
        assert hist["cold"] == 3

    def test_immediate_reuse_in_smallest_bucket(self):
        hist = reuse_distance_histogram(stream_of([0, 0]), buckets=[4, 16])
        assert hist["<4"] == 1

    def test_distance_counts_distinct_pages(self):
        # Touch 0, then 5 other pages, then 0 again: distance 5.
        pages = [0, 1, 2, 3, 4, 5, 0]
        hist = reuse_distance_histogram(stream_of(pages), buckets=[4, 16])
        assert hist["<16"] == 1
        assert hist["<4"] == 0

    def test_beyond_last_bucket(self):
        pages = [0] + list(range(1, 40)) + [0]
        hist = reuse_distance_histogram(stream_of(pages), buckets=[4, 16])
        assert hist[">=16"] == 1

    def test_total_conserved(self):
        pages = [0, 1, 0, 2, 1, 0, 3]
        hist = reuse_distance_histogram(stream_of(pages))
        assert sum(hist.values()) == len(pages)


class TestMissRateEstimate:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            estimate_tlb_miss_rate(stream_of([0]), 0)

    def test_small_working_set_no_misses(self):
        pages = [0, 1, 2, 3] * 10
        assert estimate_tlb_miss_rate(stream_of(pages), entries=8) == 0.0

    def test_thrash_band_always_misses(self):
        pages = list(range(16)) * 3
        rate = estimate_tlb_miss_rate(stream_of(pages), entries=8)
        assert rate == 1.0  # reuse distance 15 >= 8 for every reuse

    def test_cold_included_when_requested(self):
        pages = [0, 1, 2]
        rate = estimate_tlb_miss_rate(stream_of(pages), entries=8,
                                      skip_cold=False)
        assert rate == 1.0

    def test_rate_monotone_in_capacity(self):
        pages = list(range(32)) * 2
        small = estimate_tlb_miss_rate(stream_of(pages), entries=8)
        large = estimate_tlb_miss_rate(stream_of(pages), entries=64)
        assert small >= large
