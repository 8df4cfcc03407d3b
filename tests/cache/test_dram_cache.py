"""Unit tests for the L4 DRAM data cache (Section 2.2 alternative)."""

import pytest

from repro.cache.dram_cache import DramDataCache
from repro.cache.hierarchy import CacheHierarchy
from repro.common import addr
from repro.common.config import SystemConfig, stacked_dram_timing
from repro.common.stats import StatGroup, StatRegistry


def make_l4(size=1 * addr.MiB):
    return DramDataCache(size, stacked_dram_timing(), 4000, StatGroup("l4"))


class TestDramDataCache:
    def test_cold_probe_misses_but_charges_cycles(self):
        l4 = make_l4()
        probe = l4.access(0x1000)
        assert not probe.hit
        assert probe.cycles > 0

    def test_fill_then_hit(self):
        l4 = make_l4()
        l4.access(0x1000)
        l4.fill(0x1000)
        probe = l4.access(0x1000)
        assert probe.hit
        assert l4.contains(0x1000)

    def test_hit_is_line_granular(self):
        l4 = make_l4()
        l4.fill(0x1000)
        assert l4.access(0x103F).hit
        assert not l4.access(0x1040).hit

    def test_direct_mapped_conflict(self):
        l4 = make_l4(size=64 * addr.KiB)  # 1024 lines
        l4.fill(0)
        conflicting = 1024 * 64  # same index, different tag
        evicted = l4.fill(conflicting)
        assert evicted == 0
        assert not l4.contains(0)
        assert l4.contains(conflicting)

    def test_invalidate(self):
        l4 = make_l4()
        l4.fill(0x2000)
        assert l4.invalidate(0x2000)
        assert not l4.contains(0x2000)
        assert not l4.invalidate(0x2000)

    def test_hit_rate(self):
        l4 = make_l4()
        l4.fill(0x1000)
        l4.access(0x1000)
        l4.access(0x9999000)
        assert (l4.stats["l4_hits"], l4.stats["l4_misses"]) == (1, 1)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            DramDataCache(100, stacked_dram_timing(), 4000, StatGroup("x"))
        with pytest.raises(ValueError):
            DramDataCache(192 * 1024, stacked_dram_timing(), 4000,
                          StatGroup("x"))


class TestHierarchyWithL4:
    def make(self, l4_bytes):
        config = SystemConfig(num_cores=1, l4_data_cache_bytes=l4_bytes)
        return CacheHierarchy(config, StatRegistry())

    def test_disabled_by_default(self):
        assert self.make(0).l4 is None

    def test_enabled_when_configured(self):
        hierarchy = self.make(addr.MiB)
        assert hierarchy.l4 is not None

    def test_l4_hit_cheaper_than_main_memory(self):
        with_l4 = self.make(addr.MiB)
        # Fill through one access; evict from SRAM levels; re-access.
        with_l4.data_access(0, 0x5000)
        with_l4.l1(0).invalidate(0x5000)
        with_l4.l2(0).invalidate(0x5000)
        with_l4.l3.invalidate(0x5000)
        hit_cycles = with_l4.data_access(0, 0x5000)
        without = self.make(0)
        without.data_access(0, 0x5000)
        without.l1(0).invalidate(0x5000)
        without.l2(0).invalidate(0x5000)
        without.l3.invalidate(0x5000)
        # The L4 hit should not exceed the off-chip re-access (row hit).
        assert hit_cycles <= without.data_access(0, 0x5000) + 8

    def test_invalidate_line_reaches_l4(self):
        hierarchy = self.make(addr.MiB)
        hierarchy.data_access(0, 0x7000)
        assert hierarchy.l4.contains(0x7000)
        hierarchy.invalidate_line(0x7000)
        assert not hierarchy.l4.contains(0x7000)
