"""Unit tests for the DRAM channel model."""

import pytest

from repro.common.config import ddr4_timing, stacked_dram_timing
from repro.common.stats import StatGroup
from repro.dram.channel import DramChannel, typical_latencies


def make_channel(timing=None, cpu_mhz=4000):
    stats = StatGroup("dram")
    return DramChannel(timing or stacked_dram_timing(), cpu_mhz, stats), stats


class TestDramChannel:
    def test_latency_is_cpu_cycles(self):
        ch, _ = make_channel()
        # Cold access: controller(2) + tRCD+tCAS(22) + burst(64B over
        # 32B/bus-cycle = 2) = 26 bus cycles = 104 CPU cycles at 4x clock.
        assert ch.access(0) == 104

    def test_row_hit_is_cheaper(self):
        ch, _ = make_channel()
        cold = ch.access(0)
        warm = ch.access(64)  # same 2KiB row
        assert warm < cold
        assert warm == (2 + 11 + 2) * 4

    def test_row_buffer_hit_rate(self):
        # The Fig 11 rate is row_hits / accesses of the channel's group.
        ch, stats = make_channel()
        ch.access(0)
        ch.access(64)
        ch.access(128)
        assert stats["row_hits"] / stats["accesses"] == pytest.approx(2 / 3)

    def test_hit_rate_zero_when_untouched(self):
        ch, stats = make_channel()
        assert stats["row_hits"] == stats["accesses"] == 0
        assert stats.as_dict() == {}

    def test_bytes_and_access_counters(self):
        ch, stats = make_channel()
        ch.access(0)
        ch.access(4096)
        assert stats["accesses"] == 2
        assert stats["bytes"] == 64 + 64

    def test_open_row_after_conflict(self):
        ch, stats = make_channel()
        lat = typical_latencies(ch.timing, ch.cpu_mhz)
        row = ch.timing.row_buffer_bytes * ch.banks  # bank 0, row 1
        ch.access(0)
        assert ch.access(row) == lat["row_conflict"]
        # The conflict left row 1 open in bank 0.
        assert ch.access(row + 64) == lat["row_hit"]
        assert ch.access(0) == lat["row_conflict"]
        assert (stats["row_misses"], stats["row_hits"],
                stats["row_conflicts"]) == (1, 1, 2)

    def test_latency_counts_are_the_charged_latencies(self):
        ch, stats = make_channel()
        row = ch.timing.row_buffer_bytes * ch.banks  # bank 0, row 1
        charged = sorted(ch.access(a) for a in (0, 64, row, 4096, row + 64))
        assert sorted(cycles for cycles, n in ch.latency_counts()
                      for _ in range(n)) == charged
        stats.reset()
        assert [n for _, n in ch.latency_counts()] == [0, 0, 0]

    def test_open_row_tracks_last_access(self):
        ch, stats = make_channel()
        lat = typical_latencies(ch.timing, ch.cpu_mhz)
        ch.access(0)
        # The next row block maps to bank 1, idle with its own buffer.
        assert ch.access(ch.timing.row_buffer_bytes) == lat["row_miss"]
        assert ch.access(64) == lat["row_hit"]  # bank 0's row still open
        assert (stats["row_misses"], stats["row_hits"]) == (2, 1)

    def test_ddr4_is_slower_than_stacked(self):
        stacked, _ = make_channel(stacked_dram_timing())
        ddr4, _ = make_channel(ddr4_timing())
        assert ddr4.access(0) > stacked.access(0)

    def test_banks_exposed(self):
        ch, _ = make_channel()
        assert ch.banks == 16


class TestTypicalLatencies:
    def test_ordering(self):
        lat = typical_latencies(stacked_dram_timing(), 4000)
        assert lat["row_hit"] < lat["row_miss"] < lat["row_conflict"]

    def test_values_are_cpu_cycles(self):
        lat = typical_latencies(stacked_dram_timing(), 4000)
        assert lat["row_hit"] == (2 + 2 + 11) * 4

    def test_channel_charges_the_documented_latencies(self):
        for timing in (stacked_dram_timing(), ddr4_timing()):
            for cpu_mhz in (4000, 3333):
                lat = typical_latencies(timing, cpu_mhz)
                ch, stats = make_channel(timing, cpu_mhz)
                row = timing.row_buffer_bytes * timing.banks  # bank 0, row 1
                assert ch.access(0) == lat["row_miss"]
                assert ch.access(64) == lat["row_hit"]
                assert ch.access(row) == lat["row_conflict"]
                assert (stats["row_misses"], stats["row_hits"],
                        stats["row_conflicts"]) == (1, 1, 1)
