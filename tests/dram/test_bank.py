"""Unit tests for the per-bank row buffers kept by the DRAM channel."""

from repro.common.config import stacked_dram_timing
from repro.common.stats import StatGroup
from repro.dram.channel import DramChannel, typical_latencies


def make_channel():
    stats = StatGroup("dram")
    ch = DramChannel(stacked_dram_timing(), 4000, stats)
    return ch, stats, typical_latencies(ch.timing, ch.cpu_mhz)


def bank_addr(ch, bank, row):
    """Physical address of the first line of ``row`` in ``bank``."""
    return (row * ch.banks + bank) * ch.timing.row_buffer_bytes


class TestDramBank:
    def test_first_access_is_row_miss(self):
        ch, stats, lat = make_channel()
        # Every bank starts idle, so its first access opens a row.
        for bank in range(ch.banks):
            assert ch.access(bank_addr(ch, bank, 5)) == lat["row_miss"]
        assert stats["row_misses"] == ch.banks
        assert (stats["row_hits"], stats["row_conflicts"]) == (0, 0)

    def test_repeat_access_is_row_hit(self):
        ch, stats, lat = make_channel()
        for bank in range(ch.banks):
            ch.access(bank_addr(ch, bank, 5))
        # Each bank kept its own row open.
        for bank in range(ch.banks):
            assert ch.access(bank_addr(ch, bank, 5) + 64) == lat["row_hit"]
        assert stats["row_hits"] == ch.banks
        assert stats["row_conflicts"] == 0

