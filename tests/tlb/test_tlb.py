"""Unit tests for the SRAM TLB."""

import random

import pytest

from repro.common.config import TlbConfig
from repro.common.stats import StatGroup
from repro.tlb.entry import TlbEntry, TlbKey
from repro.tlb.tlb import SramTlb


def make_tlb(entries=64, ways=4):
    cfg = TlbConfig(name="t", entries=entries, ways=ways, latency_cycles=1)
    return SramTlb(cfg, StatGroup("t"))


def key(vpn, vm=0, asid=0, large=False):
    """Packed key — the representation SramTlb is keyed by."""
    return TlbKey(vm_id=vm, asid=asid, vpn=vpn, large=large).pack()


class TestLookupInsert:
    def test_cold_miss(self):
        t = make_tlb()
        assert t.lookup(key(1)) is None
        assert t.stats["misses"] == 1

    def test_insert_then_hit(self):
        t = make_tlb()
        t.insert(key(1), TlbEntry(ppn=7))
        entry = t.lookup(key(1))
        assert entry is not None and entry.ppn == 7
        assert t.stats["hits"] == 1

    def test_size_is_part_of_identity(self):
        t = make_tlb()
        t.insert(key(1, large=False), TlbEntry(ppn=7))
        assert t.lookup(key(1, large=True)) is None

    def test_vm_and_asid_are_part_of_identity(self):
        t = make_tlb()
        t.insert(key(1, vm=0, asid=0), TlbEntry(ppn=7))
        assert t.lookup(key(1, vm=1, asid=0)) is None
        assert t.lookup(key(1, vm=0, asid=1)) is None

    def test_reinsert_updates_entry(self):
        t = make_tlb()
        t.insert(key(1), TlbEntry(ppn=7))
        t.insert(key(1), TlbEntry(ppn=9))
        assert t.lookup(key(1)).ppn == 9
        assert len(t) == 1


class TestSetHash:
    @pytest.mark.parametrize("vm,asid", [(0, 0), (1, 0), (0, 1), (3, 7),
                                         (0xFFFF, 0xFFFF), (0x1234, 0x8001)])
    def test_lookup_probes_the_set_index_set(self, vm, asid):
        # lookup() inlines _set_index(): an entry planted in the set
        # _set_index() names must be found there, for any context.
        t = make_tlb(entries=1024, ways=1)
        rng = random.Random(vm * 65536 + asid)
        for _ in range(200):
            k = key(rng.getrandbits(36), vm=vm, asid=asid,
                    large=rng.random() < 0.5)
            entry = TlbEntry(ppn=rng.getrandbits(20))
            entries = t._sets[t._set_index(k)]
            entries[k] = entry
            assert t.lookup(k) is entry
            del entries[k]


class TestEviction:
    def test_set_conflict_evicts_lru(self):
        t = make_tlb(entries=8, ways=2)  # 4 sets
        sets = t.config.num_sets
        keys = [key(vpn) for vpn in (0, sets, 2 * sets)]  # same set
        t.insert(keys[0], TlbEntry(0))
        t.insert(keys[1], TlbEntry(1))
        t.lookup(keys[0])  # refresh
        evicted = t.insert(keys[2], TlbEntry(2))
        assert evicted == keys[1]
        assert t.contains(keys[0]) and not t.contains(keys[1])

    def test_capacity_never_exceeded(self):
        t = make_tlb(entries=16, ways=4)
        for vpn in range(100):
            t.insert(key(vpn), TlbEntry(vpn))
        assert len(t) <= 16

    def test_eviction_counter(self):
        t = make_tlb(entries=4, ways=1)
        for vpn in range(8):
            t.insert(key(vpn * 4), TlbEntry(vpn))  # force same-set inserts
        assert t.stats["evictions"] > 0


class TestInvalidation:
    def test_invalidate_page(self):
        t = make_tlb()
        t.insert(key(1), TlbEntry(7))
        assert t.invalidate_page(key(1))
        assert t.lookup(key(1)) is None

    def test_invalidate_missing_page(self):
        t = make_tlb()
        assert not t.invalidate_page(key(1))

    def test_invalidate_asid_spares_others(self):
        t = make_tlb()
        t.insert(key(1, asid=1), TlbEntry(1))
        t.insert(key(2, asid=2), TlbEntry(2))
        assert t.invalidate_asid(vm_id=0, asid=1) == 1
        assert t.contains(key(2, asid=2))

    def test_invalidate_vm(self):
        t = make_tlb()
        t.insert(key(1, vm=1, asid=1), TlbEntry(1))
        t.insert(key(2, vm=1, asid=2), TlbEntry(2))
        t.insert(key(3, vm=2), TlbEntry(3))
        assert t.invalidate_vm(1) == 2
        assert len(t) == 1

    def test_flush(self):
        t = make_tlb()
        for vpn in range(10):
            t.insert(key(vpn), TlbEntry(vpn))
        assert t.flush() == 10
        assert len(t) == 0


class TestIntrospection:
    def test_keys_lists_residents(self):
        t = make_tlb()
        t.insert(key(1), TlbEntry(1))
        t.insert(key(2), TlbEntry(2))
        assert set(t.keys()) == {TlbKey.from_packed(key(1)),
                                 TlbKey.from_packed(key(2))}

    def test_reach(self):
        t = make_tlb(entries=64)
        assert t.reach_bytes == 64 * 4096

    def test_hit_rate(self):
        t = make_tlb()
        t.insert(key(1), TlbEntry(1))
        t.lookup(key(1))
        t.lookup(key(2))
        assert t.hit_rate() == pytest.approx(0.5)


class TestTlbEntry:
    def test_translate_small(self):
        entry = TlbEntry(ppn=5)
        assert entry.translate(0x123, page_shift=12) == (5 << 12) | 0x123

    def test_translate_large(self):
        entry = TlbEntry(ppn=3)
        assert entry.translate(0x1FFFFF, page_shift=21) == (3 << 21) | 0x1FFFFF
