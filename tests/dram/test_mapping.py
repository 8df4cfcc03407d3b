"""Unit tests for DRAM address mapping."""

from repro.common.config import stacked_dram_timing
from repro.dram.mapping import AddressMapper


def make_mapper():
    return AddressMapper(stacked_dram_timing())


class TestAddressMapper:
    def test_column_is_offset_in_row(self):
        m = make_mapper()
        assert m.map(0).column == 0
        assert m.map(100).column == 100
        assert m.map(2048).column == 0

    def test_addresses_in_same_2k_block_share_bank_and_row(self):
        m = make_mapper()
        a, b = m.map(0x1000), m.map(0x17FF)
        assert (a.bank, a.row) == (b.bank, b.row)

    def test_consecutive_blocks_rotate_banks(self):
        m = make_mapper()
        banks = [m.map(i * 2048).bank for i in range(16)]
        assert banks == list(range(16))

    def test_row_increments_after_bank_wrap(self):
        m = make_mapper()
        assert m.map(0).row == 0
        assert m.map(16 * 2048).row == 1

    def test_mapping_is_injective_over_a_window(self):
        m = make_mapper()
        seen = set()
        for paddr in range(0, 64 * 2048, 64):
            c = m.map(paddr)
            key = (c.bank, c.row, c.column)
            assert key not in seen
            seen.add(key)
