"""Unit tests for the set-associative cache model."""

from repro.cache.cache import DATA, TLB, SetAssociativeCache
from repro.common import addr
from repro.common.config import CacheConfig
from repro.common.stats import StatGroup


def make_cache(size=4 * addr.KiB, ways=2, tlb_priority=False):
    cfg = CacheConfig(name="c", size_bytes=size, ways=ways, latency_cycles=4)
    return SetAssociativeCache(cfg, StatGroup("c"), tlb_priority=tlb_priority)


def set_stride(cache):
    """Byte distance between two addresses mapping to the same set."""
    return cache.config.num_sets * cache.config.line_bytes


class TestBasicOperation:
    def test_cold_miss_then_hit(self):
        c = make_cache()
        assert not c.lookup(0x40)
        c.fill(0x40)
        assert c.lookup(0x40)

    def test_hit_covers_whole_line(self):
        c = make_cache()
        c.fill(0x40)
        assert c.lookup(0x7F)  # same 64B line
        assert not c.lookup(0x80)  # next line

    def test_contains_has_no_side_effects(self):
        c = make_cache()
        c.fill(0x40)
        assert c.contains(0x40)
        assert c.stats["data_hits"] == 0  # no stats recorded

    def test_fill_existing_line_does_not_grow(self):
        c = make_cache()
        c.fill(0x40)
        c.fill(0x40)
        assert len(c) == 1


class TestEviction:
    def test_lru_eviction_within_set(self):
        c = make_cache(ways=2)
        stride = set_stride(c)
        a, b, d = 0, stride, 2 * stride  # all map to set 0
        c.fill(a)
        c.fill(b)
        c.lookup(a)          # refresh a; b becomes LRU
        evicted = c.fill(d)
        assert evicted == b
        assert c.contains(a) and c.contains(d) and not c.contains(b)

    def test_eviction_returns_line_address(self):
        c = make_cache(ways=1)
        stride = set_stride(c)
        c.fill(0x40)
        evicted = c.fill(0x40 + stride)
        assert evicted == 0x40  # line-aligned address of the victim

    def test_no_eviction_below_capacity(self):
        c = make_cache(ways=2)
        assert c.fill(0) is None
        assert c.fill(set_stride(c)) is None

    def test_different_sets_do_not_interfere(self):
        c = make_cache(ways=1)
        c.fill(0)
        c.fill(64)  # next set
        assert c.contains(0) and c.contains(64)


class TestKinds:
    def test_kind_statistics_are_separate(self):
        c = make_cache()
        c.lookup(0, DATA)
        c.lookup(64, TLB)
        assert c.stats["data_misses"] == 1
        assert c.stats["tlb_misses"] == 1

    def test_occupancy_by_kind(self):
        c = make_cache()
        c.fill(0, DATA)
        c.fill(64, TLB)
        assert c.occupancy() == {DATA: 1, TLB: 1}

    def test_eviction_counts_victim_kind(self):
        c = make_cache(ways=1)
        stride = set_stride(c)
        c.fill(0, TLB)
        c.fill(stride, DATA)
        assert c.stats["tlb_evictions"] == 1

    def test_hit_rate_per_kind(self):
        c = make_cache()
        c.fill(0, DATA)
        c.lookup(0, DATA)
        c.lookup(4096, DATA)
        assert (c.stats["data_hits"], c.stats["data_misses"]) == (1, 1)
        assert (c.stats["tlb_hits"], c.stats["tlb_misses"]) == (0, 0)


class TestTlbPriority:
    def test_priority_mode_prefers_evicting_data(self):
        c = make_cache(ways=2, tlb_priority=True)
        stride = set_stride(c)
        c.fill(0, TLB)
        c.fill(stride, DATA)
        c.lookup(stride)  # data line is most recent; plain LRU would evict TLB
        evicted = c.fill(2 * stride, DATA)
        assert evicted == stride  # data line evicted despite recency

    def test_priority_mode_evicts_tlb_when_set_is_all_tlb(self):
        c = make_cache(ways=2, tlb_priority=True)
        stride = set_stride(c)
        c.fill(0, TLB)
        c.fill(stride, TLB)
        evicted = c.fill(2 * stride, TLB)
        assert evicted == 0

    def test_default_mode_is_pure_lru(self):
        c = make_cache(ways=2, tlb_priority=False)
        stride = set_stride(c)
        c.fill(0, TLB)
        c.fill(stride, DATA)
        c.lookup(stride)
        evicted = c.fill(2 * stride, DATA)
        assert evicted == 0  # the TLB line was LRU


class TestInvalidateAndFlush:
    def test_invalidate(self):
        c = make_cache()
        c.fill(0x40)
        assert c.invalidate(0x40)
        assert not c.contains(0x40)

    def test_invalidate_missing_returns_false(self):
        c = make_cache()
        assert not c.invalidate(0x40)

    def test_flush_empties_cache(self):
        c = make_cache()
        for i in range(8):
            c.fill(i * 64)
        c.flush()
        assert len(c) == 0

    def test_refill_after_invalidate_works(self):
        c = make_cache(ways=1)
        c.fill(0)
        c.invalidate(0)
        c.fill(0)
        assert c.contains(0)
