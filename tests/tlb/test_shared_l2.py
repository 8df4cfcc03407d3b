"""Unit tests for the Shared_L2 baseline TLB (one SRAM TLB for all cores)."""

from repro.common.config import SharedL2Config
from repro.common.stats import StatGroup
from repro.tlb.entry import TlbEntry, TlbKey
from repro.tlb.tlb import SramTlb


def make_shared(num_cores=8):
    return SramTlb(SharedL2Config().tlb_config(num_cores),
                   StatGroup("shared"))


class TestSharedLastLevelTlb:
    def test_aggregate_capacity(self):
        shared = make_shared(8)
        assert shared.config.entries == 8 * 1536

    def test_latency_exceeds_private_l2_tlb(self):
        # Banked array + interconnect: must cost more than the 9-cycle
        # private L2 TLB, else sharing would be free.
        shared = make_shared(8)
        assert shared.config.latency_cycles > 9

    def test_banked_latency_is_core_count_independent(self):
        assert (make_shared(32).config.latency_cycles
                == make_shared(4).config.latency_cycles)

    def test_insert_lookup_roundtrip(self):
        shared = make_shared(4)
        k = TlbKey(vm_id=0, asid=1, vpn=42, large=False).pack()
        shared.insert(k, TlbEntry(ppn=7))
        assert shared.lookup(k).ppn == 7

    def test_flush_and_len(self):
        shared = make_shared(2)
        for vpn in range(16):
            shared.insert(TlbKey(0, 0, vpn, False).pack(), TlbEntry(vpn))
        assert len(shared) == 16
        assert shared.flush() == 16
        assert len(shared) == 0

    def test_invalidate_page(self):
        shared = make_shared(2)
        k = TlbKey(0, 0, 5, False).pack()
        shared.insert(k, TlbEntry(1))
        assert shared.invalidate_page(k)
        assert shared.lookup(k) is None
