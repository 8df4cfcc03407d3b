"""Unit tests for the DRAM address mapping of the FR-FCFS scheduler."""

from repro.common.config import stacked_dram_timing
from repro.dram.scheduler import CommandScheduler


def make_mapper():
    return CommandScheduler(stacked_dram_timing()).locate


class TestAddressMapper:
    def test_column_is_offset_in_row(self):
        locate = make_mapper()
        assert locate(0)[2] == 0
        assert locate(100)[2] == 100
        assert locate(2048)[2] == 0

    def test_addresses_in_same_2k_block_share_bank_and_row(self):
        locate = make_mapper()
        assert locate(0x1000)[:2] == locate(0x17FF)[:2]

    def test_consecutive_blocks_rotate_banks(self):
        locate = make_mapper()
        banks = [locate(i * 2048)[0] for i in range(16)]
        assert banks == list(range(16))

    def test_row_increments_after_bank_wrap(self):
        locate = make_mapper()
        assert locate(0)[1] == 0
        assert locate(16 * 2048)[1] == 1

    def test_mapping_is_injective_over_a_window(self):
        locate = make_mapper()
        seen = set()
        for paddr in range(0, 64 * 2048, 64):
            coordinate = locate(paddr)
            assert coordinate not in seen
            seen.add(coordinate)
