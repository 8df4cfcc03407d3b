"""Unit tests for the TSB baseline structure."""

from repro.common import addr
from repro.common.config import TsbConfig
from repro.common.stats import StatGroup
from repro.core.tsb import TranslationStorageBuffer


def make_tsb(size_mb=16):
    return TranslationStorageBuffer(TsbConfig(size_bytes=size_mb * addr.MiB),
                                    StatGroup("tsb"))


class TestGuestHalf:
    def test_cold_probe_misses(self):
        tsb = make_tsb()
        assert tsb.probe_guest(0, 1, 5, False) is None
        assert tsb.stats["guest_misses"] == 1

    def test_fill_then_hit(self):
        tsb = make_tsb()
        tsb.fill_guest(0, 1, 5, False, gpa_frame=0xAA000)
        assert tsb.probe_guest(0, 1, 5, False) == 0xAA000

    def test_tag_mismatch_misses(self):
        tsb = make_tsb()
        tsb.fill_guest(0, 1, 5, False, 0xAA000)
        assert tsb.probe_guest(0, 2, 5, False) is None  # other asid
        assert tsb.probe_guest(0, 1, 5, True) is None   # other size

    def test_direct_mapped_conflict_evicts(self):
        tsb = make_tsb()
        half = tsb._half_entries
        tsb.fill_guest(0, 1, 0, False, 0x1000)
        tsb.fill_guest(0, 1, half, False, 0x2000)  # same index
        assert tsb.probe_guest(0, 1, 0, False) is None
        assert tsb.stats["guest_conflict_evictions"] == 1

    def test_entry_addresses_in_guest_half(self):
        tsb = make_tsb()
        a = tsb.guest_entry_address(0, 1, 5)
        assert tsb.config.base_address <= a < tsb._host_base
        assert a % tsb.config.entry_bytes == 0


class TestHostHalf:
    def test_fill_then_hit(self):
        tsb = make_tsb()
        tsb.fill_host(0, 123, 0xBB000)
        assert tsb.probe_host(0, 123) == 0xBB000

    def test_vm_disambiguates(self):
        tsb = make_tsb()
        tsb.fill_host(1, 123, 0xBB000)
        assert tsb.probe_host(2, 123) is None

    def test_entry_addresses_in_host_half(self):
        tsb = make_tsb()
        a = tsb.host_entry_address(0, 123)
        limit = tsb.config.base_address + tsb.config.size_bytes
        assert tsb._host_base <= a < limit

    def test_gpa_vpn_is_4k_granular(self):
        assert TranslationStorageBuffer.gpa_vpn(0x5123) == 0x5


class TestInvalidateAndReporting:
    def test_invalidate_guest(self):
        tsb = make_tsb()
        tsb.fill_guest(0, 1, 5, False, 0xAA000)
        entry_addr = tsb.invalidate_guest(0, 1, 5, False)
        assert entry_addr == tsb.guest_entry_address(0, 1, 5)
        assert tsb.probe_guest(0, 1, 5, False) is None

    def test_invalidate_absent_is_none(self):
        tsb = make_tsb()
        assert tsb.invalidate_guest(0, 1, 5, False) is None

    def test_occupancy(self):
        tsb = make_tsb()
        tsb.fill_guest(0, 1, 5, False, 0xAA000)
        tsb.fill_host(0, 123, 0xBB000)
        assert tsb.occupancy() == {"guest": 1, "host": 1}
