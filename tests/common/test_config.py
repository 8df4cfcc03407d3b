"""Unit tests for configuration dataclasses and their validation."""

import pytest

from repro.common import addr
from repro.common.config import (
    CacheConfig,
    PomTlbConfig,
    PredictorConfig,
    SharedL2Config,
    SystemConfig,
    TlbConfig,
    TsbConfig,
    WalkCacheConfig,
    ddr4_timing,
    stacked_dram_timing,
)
from repro.common.errors import ConfigError


class TestCacheConfig:
    def test_skylake_l1d_geometry(self):
        cfg = SystemConfig().l1d
        assert cfg.size_bytes == 32 * addr.KiB
        assert cfg.ways == 8
        assert cfg.num_sets == 64

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig(name="bad", size_bytes=96 * addr.KiB, ways=8, latency_cycles=4)

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigError):
            CacheConfig(name="bad", size_bytes=32 * addr.KiB, ways=8, latency_cycles=0)


class TestTlbConfig:
    def test_l2_tlb_defaults_match_table1(self):
        mmu = SystemConfig().mmu
        assert mmu.l2_unified.entries == 1536
        assert mmu.l2_unified.ways == 12
        assert mmu.l2_unified.miss_penalty_cycles == 17
        assert mmu.l1_small.entries == 64
        assert mmu.l1_large.entries == 32

    def test_rejects_bad_set_count(self):
        with pytest.raises(ConfigError):
            TlbConfig(name="bad", entries=96, ways=8, latency_cycles=1)


class TestDramTiming:
    def test_stacked_parameters_match_table1(self):
        t = stacked_dram_timing()
        assert (t.tcas, t.trcd, t.trp) == (11, 11, 11)
        assert t.bus_mhz == 1000
        assert t.bus_bits == 128
        assert t.row_buffer_bytes == 2048

    def test_ddr4_parameters_match_table1(self):
        t = ddr4_timing()
        assert (t.tcas, t.trcd, t.trp) == (14, 14, 14)
        assert t.bus_mhz == 1066
        assert t.bus_bits == 64

    def test_cpu_cycle_conversion_rounds_up(self):
        t = stacked_dram_timing()
        # 11 bus cycles at 1 GHz = 44 CPU cycles at 4 GHz.
        assert t.cpu_cycles(11, 4000) == 44
        # Non-integer ratios round up.
        assert ddr4_timing().cpu_cycles(1, 4000) == 4


class TestPomTlbConfig:
    def test_default_is_16mib_4way(self):
        cfg = PomTlbConfig()
        assert cfg.size_bytes == 16 * addr.MiB
        assert cfg.ways == 4
        assert cfg.small_size_bytes == 8 * addr.MiB
        assert cfg.large_size_bytes == 8 * addr.MiB

    def test_sets_are_line_granular(self):
        cfg = PomTlbConfig()
        assert cfg.small_sets * 64 == cfg.small_size_bytes
        assert cfg.large_sets * 64 == cfg.large_size_bytes

    def test_partitions_are_adjacent(self):
        cfg = PomTlbConfig()
        assert cfg.large_base == cfg.small_base + cfg.small_size_bytes

    def test_contains(self):
        cfg = PomTlbConfig()
        assert cfg.contains(cfg.base_address)
        assert cfg.contains(cfg.base_address + cfg.size_bytes - 1)
        assert not cfg.contains(cfg.base_address - 1)
        assert not cfg.contains(cfg.base_address + cfg.size_bytes)

    def test_entry_geometry_must_fill_line(self):
        with pytest.raises(ConfigError):
            PomTlbConfig(ways=8)  # 8 * 16B != 64B

    def test_row_holds_128_entries(self):
        # Paper Section 2.1.1: a 2 KiB row holds 128 entries = 32 sets.
        cfg = PomTlbConfig()
        row = stacked_dram_timing().row_buffer_bytes
        assert row // cfg.entry_bytes == 128
        assert row // 64 == 32


class TestPredictorConfig:
    def test_default_512_entries(self):
        cfg = PredictorConfig()
        assert cfg.entries == 512

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            PredictorConfig(entries=500)


class TestTsbConfig:
    def test_default_16mib_direct_mapped(self):
        cfg = TsbConfig()
        assert cfg.size_bytes == 16 * addr.MiB
        assert cfg.num_entries == addr.MiB  # 16MiB / 16B

    def test_rejects_non_power_of_two_entries(self):
        with pytest.raises(ConfigError):
            TsbConfig(size_bytes=48 * addr.KiB)


class TestSharedL2Config:
    def test_aggregate_capacity_scales_with_cores(self):
        cfg = SharedL2Config()
        assert cfg.tlb_config(8).entries == 8 * 1536

    def test_walk_cache_defaults(self):
        cfg = WalkCacheConfig()
        assert (cfg.pml4_entries, cfg.pdp_entries, cfg.pde_entries) == (2, 4, 32)


class TestSystemConfig:
    def test_defaults_are_8_core_4ghz(self):
        cfg = SystemConfig()
        assert cfg.num_cores == 8
        assert cfg.cpu_mhz == 4000
        assert cfg.virtualized is True
        assert cfg.cache_tlb_entries is True

    def test_copy_with_overrides(self):
        cfg = SystemConfig()
        other = cfg.copy_with(num_cores=4, cache_tlb_entries=False)
        assert other.num_cores == 4
        assert not other.cache_tlb_entries
        assert cfg.num_cores == 8  # original untouched

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=0)
