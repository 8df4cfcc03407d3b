"""Property-based tests for the DRAM model."""

from hypothesis import given, settings, strategies as st

from repro.common.config import stacked_dram_timing
from repro.common.stats import StatGroup
from repro.dram.channel import DramChannel
from repro.dram.mapping import AddressMapper

paddrs = st.integers(min_value=0, max_value=(1 << 40) - 1)


class TestMappingProperties:
    @settings(max_examples=80, deadline=None)
    @given(paddrs)
    def test_coordinates_in_range(self, paddr):
        mapper = AddressMapper(stacked_dram_timing())
        coord = mapper.map(paddr)
        assert 0 <= coord.bank < 16
        assert 0 <= coord.column < 2048
        assert coord.row >= 0

    @settings(max_examples=80, deadline=None)
    @given(paddrs)
    def test_mapping_is_invertible(self, paddr):
        timing = stacked_dram_timing()
        mapper = AddressMapper(timing)
        coord = mapper.map(paddr)
        rebuilt = ((coord.row * timing.banks + coord.bank)
                   * timing.row_buffer_bytes + coord.column)
        assert rebuilt == paddr

    @settings(max_examples=60, deadline=None)
    @given(paddrs, st.integers(0, 2047))
    def test_same_row_within_row_buffer(self, paddr, offset):
        mapper = AddressMapper(stacked_dram_timing())
        row_base = mapper.map(paddr & ~2047)
        coord = mapper.map((paddr & ~2047) + offset)
        assert (coord.bank, coord.row) == (row_base.bank, row_base.row)


class TestChannelProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(paddrs, min_size=1, max_size=60))
    def test_latency_is_one_of_three_classes(self, accesses):
        timing = stacked_dram_timing()
        channel = DramChannel(timing, 4000, StatGroup("d"))
        burst = 2  # 64B over a 32B/cycle DDR bus
        classes = {
            timing.cpu_cycles(timing.controller_cycles + timing.tcas + burst, 4000),
            timing.cpu_cycles(timing.controller_cycles + timing.trcd
                              + timing.tcas + burst, 4000),
            timing.cpu_cycles(timing.controller_cycles + timing.trp
                              + timing.trcd + timing.tcas + burst, 4000),
        }
        for paddr in accesses:
            assert channel.access(paddr) in classes

    @settings(max_examples=30, deadline=None)
    @given(st.lists(paddrs, min_size=1, max_size=60))
    def test_stat_conservation(self, accesses):
        channel = DramChannel(stacked_dram_timing(), 4000, StatGroup("d"))
        for paddr in accesses:
            channel.access(paddr)
        stats = channel.stats
        assert (stats["row_hits"] + stats["row_misses"]
                + stats["row_conflicts"]) == stats["accesses"] == len(accesses)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(paddrs, min_size=2, max_size=40))
    def test_repeating_the_last_access_is_a_row_hit(self, accesses):
        timing = stacked_dram_timing()
        channel = DramChannel(timing, 4000, StatGroup("d"))
        for paddr in accesses:
            channel.access(paddr)
        hits_before = channel.stats["row_hits"]
        channel.access(accesses[-1])
        assert channel.stats["row_hits"] == hits_before + 1
