"""Unit tests for address arithmetic helpers."""

import pytest

from repro.common import addr
from repro.common.errors import AddressError


class TestPageGeometry:
    def test_small_page_size(self):
        assert addr.SMALL_PAGE_SIZE == 4096

    def test_large_page_size(self):
        assert addr.LARGE_PAGE_SIZE == 2 * 1024 * 1024

    def test_small_pages_per_large(self):
        assert addr.SMALL_PAGES_PER_LARGE == 512

    def test_page_shift(self):
        assert addr.page_shift(False) == 12
        assert addr.page_shift(True) == 21

    def test_page_size_by_flag(self):
        assert addr.page_size(False) == addr.SMALL_PAGE_SIZE
        assert addr.page_size(True) == addr.LARGE_PAGE_SIZE


class TestVpnAndOffset:
    def test_vpn_small(self):
        assert addr.vpn(0x12345678, large=False) == 0x12345678 >> 12

    def test_vpn_large(self):
        assert addr.vpn(0x12345678, large=True) == 0x12345678 >> 21

    def test_offset_small(self):
        assert addr.page_offset(0x1234, large=False) == 0x234

    def test_offset_large(self):
        assert addr.page_offset(0x2FFFFF, large=True) == 0xFFFFF

    def test_page_base_plus_offset_reconstructs(self):
        va = 0xDEADBEEF123
        for large in (False, True):
            assert addr.page_base(va, large) + addr.page_offset(va, large) == va


class TestCacheLines:
    def test_cache_line_base(self):
        assert addr.cache_line_base(0x1234) == 0x1200


class TestRadixIndex:
    def test_level_1_uses_bits_12_to_20(self):
        va = 0b111111111 << 12
        assert addr.radix_index(va, 1) == 0b111111111
        assert addr.radix_index(va, 2) == 0

    def test_level_4_uses_bits_39_to_47(self):
        va = 0x1FF << 39
        assert addr.radix_index(va, 4) == 0x1FF

    def test_indices_cover_distinct_bits(self):
        va = sum((i + 1) << (12 + 9 * i) for i in range(4))
        assert [addr.radix_index(va, lvl) for lvl in (1, 2, 3, 4)] == [1, 2, 3, 4]

    def test_invalid_level_raises(self):
        with pytest.raises(AddressError):
            addr.radix_index(0, 0)
        with pytest.raises(AddressError):
            addr.radix_index(0, 5)


class TestBitHelpers:
    def test_is_power_of_two(self):
        assert addr.is_power_of_two(1)
        assert addr.is_power_of_two(4096)
        assert not addr.is_power_of_two(0)
        assert not addr.is_power_of_two(3)
        assert not addr.is_power_of_two(-4)

    def test_ilog2(self):
        assert addr.ilog2(1) == 0
        assert addr.ilog2(4096) == 12

    def test_ilog2_rejects_non_power(self):
        with pytest.raises(AddressError):
            addr.ilog2(12)

    def test_align_up(self):
        assert addr.align_up(1, 4096) == 4096
        assert addr.align_up(4096, 4096) == 4096
        assert addr.align_up(4097, 4096) == 8192

    def test_align_up_rejects_bad_alignment(self):
        with pytest.raises(AddressError):
            addr.align_up(1, 3)

    def test_canonical_truncates_to_48_bits(self):
        assert addr.canonical(1 << 60) == 0
        assert addr.canonical((1 << 48) - 1) == (1 << 48) - 1


class TestPrettySize:
    def test_round_units(self):
        assert addr.pretty_size(16 * addr.MiB) == "16MiB"
        assert addr.pretty_size(4 * addr.KiB) == "4KiB"
        assert addr.pretty_size(2 * addr.GiB) == "2GiB"

    def test_odd_bytes(self):
        assert addr.pretty_size(100) == "100B"
