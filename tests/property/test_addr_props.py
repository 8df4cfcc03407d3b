"""Property-based tests for address arithmetic."""

from hypothesis import given, strategies as st

from repro.common import addr
from tests.common.test_addr import radix_index

vaddrs = st.integers(min_value=0, max_value=(1 << 48) - 1)
sizes = st.booleans()


class TestPageDecomposition:
    @given(vaddrs, sizes)
    def test_base_plus_offset_reconstructs(self, va, large):
        assert addr.page_base(va, large) + addr.page_offset(va, large) == va

    @given(vaddrs, sizes)
    def test_offset_bounded(self, va, large):
        assert 0 <= addr.page_offset(va, large) < addr.page_size(large)

    @given(vaddrs, sizes)
    def test_vpn_consistent_with_base(self, va, large):
        assert addr.vpn(va, large) << addr.page_shift(large) == \
            addr.page_base(va, large)

    @given(vaddrs)
    def test_large_page_contains_its_small_pages(self, va):
        small = addr.vpn(va, large=False)
        large = addr.vpn(va, large=True)
        first_small = large * addr.SMALL_PAGES_PER_LARGE
        assert first_small <= small < first_small + addr.SMALL_PAGES_PER_LARGE


class TestRadixIndices:
    @given(vaddrs)
    def test_indices_reconstruct_page_bits(self, va):
        rebuilt = 0
        for level in range(1, 5):
            rebuilt |= radix_index(va, level) << (12 + 9 * (level - 1))
        assert rebuilt == addr.page_base(va, large=False)

    @given(vaddrs)
    def test_indices_in_range(self, va):
        for level in range(1, 5):
            assert 0 <= radix_index(va, level) < 512


class TestAlignment:
    @given(st.integers(min_value=0, max_value=1 << 50),
           st.integers(min_value=0, max_value=20))
    def test_align_up_properties(self, value, shift):
        alignment = 1 << shift
        aligned = addr.align_up(value, alignment)
        assert aligned >= value
        assert aligned % alignment == 0
        assert aligned - value < alignment

    @given(st.integers(min_value=0, max_value=1 << 60))
    def test_cache_line_consistency(self, address):
        base = addr.cache_line_base(address)
        assert base <= address < base + addr.CACHE_LINE_SIZE

    @given(st.integers(min_value=1, max_value=1 << 40))
    def test_ilog2_inverts_power(self, n):
        power = 1 << (n.bit_length() - 1)
        assert 1 << addr.ilog2(power) == power
