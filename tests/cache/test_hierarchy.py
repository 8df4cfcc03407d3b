"""Unit tests for the cache hierarchy / miss path."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.common import addr
from repro.common.config import CacheConfig, SystemConfig
from repro.common.stats import StatRegistry


@pytest.fixture
def hierarchy():
    return CacheHierarchy(SystemConfig(num_cores=2), StatRegistry())


class TestDataPath:
    def test_cold_access_goes_to_dram(self, hierarchy):
        cfg = hierarchy.config
        cycles = hierarchy.data_access(0, 0x1000)
        min_sram = (cfg.l1d.latency_cycles + cfg.l2d.latency_cycles
                    + cfg.l3d.latency_cycles)
        assert cycles > min_sram  # DRAM latency added

    def test_second_access_hits_l1(self, hierarchy):
        hierarchy.data_access(0, 0x1000)
        assert hierarchy.data_access(0, 0x1000) == hierarchy.config.l1d.latency_cycles

    def test_miss_path_fills_all_levels(self, hierarchy):
        hierarchy.data_access(0, 0x1000)
        assert hierarchy.l1(0).contains(0x1000)
        assert hierarchy.l2(0).contains(0x1000)
        assert hierarchy.l3.contains(0x1000)

    def test_other_core_hits_shared_l3(self, hierarchy):
        hierarchy.data_access(0, 0x1000)
        cycles = hierarchy.data_access(1, 0x1000)
        assert cycles == hierarchy.config.l3d.latency_cycles

    def test_writebacks_group_stays_empty(self):
        # No counter writes to it; every stats snapshot still lists it.
        stats = StatRegistry()
        hierarchy = CacheHierarchy(SystemConfig(num_cores=1), stats)
        for i in range(64):
            hierarchy.data_access(0, i * 4096)
        assert stats.as_nested_dict()["writebacks"] == {}

    def test_pte_access_uses_data_path(self, hierarchy):
        # The walkers issue PTE references as ordinary data accesses.
        hierarchy.data_access(0, 0x2000)
        assert hierarchy.l1(0).contains(0x2000)


class TestTlbLinePath:
    def test_probe_misses_cold(self, hierarchy):
        cycles, level = hierarchy.tlb_line_probe(0, 0x5000)
        assert level is None
        # Load-to-use semantics: the L3 lookup time covers the whole
        # on-chip search before heading to DRAM.
        assert cycles == hierarchy.config.l3d.latency_cycles

    def test_probe_does_not_touch_l1(self, hierarchy):
        hierarchy.tlb_line_fill(0, 0x5000)
        hierarchy.tlb_line_probe(0, 0x5000)
        assert not hierarchy.l1(0).contains(0x5000)

    def test_fill_then_probe_hits_l2(self, hierarchy):
        hierarchy.tlb_line_fill(0, 0x5000)
        cycles, level = hierarchy.tlb_line_probe(0, 0x5000)
        assert level == "l2"
        assert cycles == hierarchy.config.l2d.latency_cycles

    def test_other_core_hits_l3_and_promotes(self, hierarchy):
        hierarchy.tlb_line_fill(0, 0x5000)
        cycles, level = hierarchy.tlb_line_probe(1, 0x5000)
        assert level == "l3"
        # Promotion: next probe by core 1 hits its private L2.
        _, level2 = hierarchy.tlb_line_probe(1, 0x5000)
        assert level2 == "l2"

    def test_tlb_line_cached_is_side_effect_free(self, hierarchy):
        assert not hierarchy.tlb_line_cached(0, 0x5000)
        hierarchy.tlb_line_fill(0, 0x5000)
        assert hierarchy.tlb_line_cached(0, 0x5000)
        stats = hierarchy.l2(0).stats
        assert stats["tlb_hits"] == 0  # contains() recorded nothing

    def test_invalidate_line_everywhere(self, hierarchy):
        hierarchy.data_access(0, 0x7000)
        hierarchy.tlb_line_fill(1, 0x7000)
        hierarchy.invalidate_line(0x7000)
        assert not hierarchy.l1(0).contains(0x7000)
        assert not hierarchy.l2(1).contains(0x7000)
        assert not hierarchy.l3.contains(0x7000)


class TestLatencyAccumulation:
    def test_l2_hit_latency(self, hierarchy):
        hierarchy.data_access(0, 0x9000)
        # Evict from L1 only, by filling its set; easier: probe from the
        # same core after invalidating L1.
        hierarchy.l1(0).invalidate(0x9000)
        assert (hierarchy.data_access(0, 0x9000)
                == hierarchy.config.l2d.latency_cycles)

    def test_dram_stats_count_accesses(self, hierarchy):
        hierarchy.data_access(0, 0x1000)
        hierarchy.data_access(0, 0x1000)
        assert hierarchy.main_dram.stats["accesses"] == 1


class TestTlbPriority:
    """Sec. 5.1 TLB-aware caching: the L2 evicts data before TLB lines."""

    # A 2-way, 16-set L2: lines 1 KiB apart share a set.
    A, B, C = 0x0, 0x400, 0x800

    @pytest.fixture
    def hierarchy(self):
        config = SystemConfig(num_cores=1, l2d=CacheConfig(
            name="l2d", size_bytes=2 * addr.KiB, ways=2, latency_cycles=12))
        return CacheHierarchy(config, StatRegistry(), tlb_priority=True)

    def test_data_fill_evicts_data_line_not_tlb_line(self, hierarchy):
        hierarchy.tlb_line_fill(0, self.A)
        hierarchy.data_access(0, self.B)
        hierarchy.data_access(0, self.C)
        l2 = hierarchy.l2(0)
        assert l2.contains(self.A) and l2.contains(self.C)
        assert not l2.contains(self.B)
        assert l2.stats["data_evictions"] == 1
        assert l2.stats["tlb_evictions"] == 0

    @pytest.mark.parametrize("fill", ["tlb_line_fill", "tlb_line_refill"])
    def test_tlb_fill_evicts_data_line_not_tlb_line(self, hierarchy, fill):
        hierarchy.tlb_line_fill(0, self.A)
        hierarchy.data_access(0, self.B)
        getattr(hierarchy, fill)(0, self.C)
        l2 = hierarchy.l2(0)
        assert l2.contains(self.A) and l2.contains(self.C)
        assert not l2.contains(self.B)
