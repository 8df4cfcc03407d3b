"""Unit tests for the POM-TLB structure."""

import pytest

from repro.common import addr
from repro.common.config import PomTlbConfig, SystemConfig
from repro.common.stats import StatRegistry
from repro.core.pom_tlb import PomTlb
from repro.core.skewed_pom import SkewedPomTlb
from repro.tlb.entry import TlbEntry, TlbKey


def make_pom(size_mb=16):
    cfg = SystemConfig(pom_tlb=PomTlbConfig(size_bytes=size_mb * addr.MiB))
    return PomTlb(cfg, StatRegistry())


def key(vpn, vm=0, asid=0, large=False):
    """Packed key — the representation the POM-TLB is keyed by."""
    return TlbKey(vm_id=vm, asid=asid, vpn=vpn, large=large).pack()


class TestProbeInsert:
    def test_cold_probe_misses(self):
        pom = make_pom()
        assert pom.probe(0x5000, key(5)) is None
        assert pom.stats["misses_small"] == 1

    def test_insert_then_hit(self):
        pom = make_pom()
        pom.insert(0x5000, key(5), TlbEntry(ppn=99))
        entry = pom.probe(0x5000, key(5))
        assert entry is not None and entry.ppn == 99
        assert pom.stats["hits_small"] == 1

    def test_partitions_are_independent(self):
        pom = make_pom()
        pom.insert(0x5000, key(5, large=False), TlbEntry(1))
        assert pom.probe(0x5000, key(0, large=True)) is None
        assert pom.stats["misses_large"] == 1

    def test_vm_and_asid_disambiguate(self):
        pom = make_pom()
        pom.insert(0x5000, key(5, vm=1, asid=1), TlbEntry(1))
        assert pom.probe(0x5000, key(5, vm=2, asid=1)) is None
        assert pom.probe(0x5000, key(5, vm=1, asid=2)) is None

    def test_reinsert_updates(self):
        pom = make_pom()
        pom.insert(0x5000, key(5), TlbEntry(1))
        pom.insert(0x5000, key(5), TlbEntry(2))
        assert pom.probe(0x5000, key(5)).ppn == 2
        assert pom.occupancy()["small"] == 1

    def test_contains_has_no_side_effects(self):
        pom = make_pom()
        pom.insert(0x5000, key(5), TlbEntry(1))
        before = dict(pom.stats.as_dict())
        assert pom.contains(0x5000, key(5))
        assert dict(pom.stats.as_dict()) == before


class TestAssociativityAndLru:
    def conflict_vas(self, pom, count):
        """Virtual addresses all mapping to small-partition set 0, VM 0."""
        stride = pom.config.small_sets * addr.SMALL_PAGE_SIZE
        return [i * stride for i in range(count)]

    def test_four_ways_coexist(self):
        pom = make_pom()
        vas = self.conflict_vas(pom, 4)
        for va in vas:
            pom.insert(va, key(va >> 12), TlbEntry(va >> 12))
        for va in vas:
            assert pom.probe(va, key(va >> 12)) is not None

    def test_fifth_way_evicts_lru(self):
        pom = make_pom()
        vas = self.conflict_vas(pom, 5)
        for va in vas[:4]:
            pom.insert(va, key(va >> 12), TlbEntry(1))
        pom.probe(vas[0], key(vas[0] >> 12))  # refresh the oldest
        _, evicted = pom.insert(vas[4], key(vas[4] >> 12), TlbEntry(1))
        assert evicted == key(vas[1] >> 12)  # second-oldest was LRU
        assert pom.stats["evictions"] == 1

    def test_insert_returns_set_address(self):
        pom = make_pom()
        set_paddr, _ = pom.insert(0x5000, key(5), TlbEntry(1))
        assert set_paddr == pom.set_address(0x5000, 0, False)
        assert pom.config.contains(set_paddr)


class TestDramTiming:
    def test_dram_access_returns_cycles(self):
        pom = make_pom()
        cycles = pom.dram.access(pom.set_address(0x5000, 0, False))
        assert cycles > 0

    def test_same_row_accesses_hit_row_buffer(self):
        pom = make_pom()
        a = pom.set_address(0x5000, 0, False)
        pom.dram.access(a)
        # row stats live on the stacked_dram group
        first = pom.dram.stats["row_hits"]
        pom.dram.access(a + 64)  # neighbouring set, same 2KiB row
        assert pom.dram.stats["row_hits"] == first + 1


class TestInvalidation:
    def test_invalidate_present_returns_set_address(self):
        pom = make_pom()
        pom.insert(0x5000, key(5), TlbEntry(1))
        set_paddr = pom.invalidate(0x5000, key(5))
        assert set_paddr == pom.set_address(0x5000, 0, False)
        assert pom.probe(0x5000, key(5)) is None

    def test_invalidate_absent_returns_none(self):
        pom = make_pom()
        assert pom.invalidate(0x5000, key(5)) is None

    def test_invalidate_vm(self):
        pom = make_pom()
        pom.insert(0x1000, key(1, vm=1), TlbEntry(1))
        pom.insert(0x2000, key(2, vm=1), TlbEntry(2))
        pom.insert(0x3000, key(3, vm=2), TlbEntry(3))
        dropped = pom.invalidate_vm(1)
        assert len(dropped) == 2  # one set address per dropped entry
        assert pom.occupancy()["small"] == 1


class TestCapacityAndReach:
    def test_reach_is_orders_of_magnitude_beyond_sram(self):
        pom = make_pom(16)
        # 8MiB small partition = 512K entries covering 2GiB, plus the
        # large partition covering 1TiB — paper: "orders of magnitude
        # larger than today's on-chip TLBs".
        assert pom.reach_bytes > 1 << 40

    def test_hit_rate(self):
        pom = make_pom()
        pom.insert(0x5000, key(5), TlbEntry(1))
        pom.probe(0x5000, key(5))
        pom.probe(0x6000, key(6))
        assert pom.hit_rate() == pytest.approx(0.5)


# -- the interface both organisations answer the MMU and verifier through ---


def page_va(k):
    """Virtual address of the page a packed key names."""
    return (k >> 33) << addr.page_shift(bool(k & 1))


@pytest.fixture(params=[PomTlb, SkewedPomTlb], ids=["partitioned", "skewed"])
def structure(request):
    cfg = SystemConfig(pom_tlb=PomTlbConfig(size_bytes=1 * addr.MiB))
    return request.param(cfg, StatRegistry())


class TestStructureInterface:
    KEYS = [key(5, vm=1, asid=2), key(7, vm=1, asid=2, large=True),
            key(9, vm=3, asid=2)]

    def test_candidates_are_lines_in_the_mapped_range(self, structure):
        for k in self.KEYS:
            candidates = structure.candidates(page_va(k), k)
            assert 1 <= len(candidates) <= structure.config.ways
            for line, _slot in candidates:
                assert line % addr.CACHE_LINE_SIZE == 0
                assert structure.config.contains(line)

    def test_insert_writes_a_candidate_line(self, structure):
        for k in self.KEYS:
            line, evicted = structure.insert(page_va(k), k, TlbEntry(1))
            assert evicted is None
            assert line in [c[0] for c in structure.candidates(page_va(k), k)]
            assert structure.key_lines(page_va(k), k) == [line]
            assert structure.contains(page_va(k), k)

    def test_probe_counts_one_hit_or_one_miss(self, structure):
        k, absent = self.KEYS[0], key(6, vm=1, asid=2)
        structure.insert(page_va(k), k, TlbEntry(4))
        assert structure.probe(page_va(k), k).ppn == 4
        assert structure.probe(page_va(absent), absent) is None
        assert structure.stats["hits_small"] == 1
        assert structure.stats["misses_small"] == 1

    def test_views_have_no_side_effects(self, structure):
        k = self.KEYS[0]
        structure.insert(page_va(k), k, TlbEntry(1))
        before = structure.stats.as_dict()
        structure.contains(page_va(k), k)
        structure.key_lines(page_va(k), k)
        structure.vm_lines(1)
        assert structure.stats.as_dict() == before

    def test_invalidate_returns_the_line_it_dropped(self, structure):
        k = self.KEYS[0]
        line, _ = structure.insert(page_va(k), k, TlbEntry(1))
        assert structure.invalidate(page_va(k), k) == line
        assert structure.key_lines(page_va(k), k) == []
        assert structure.invalidate(page_va(k), k) is None

    def test_invalidate_vm_drops_the_vm_lines(self, structure):
        lines = {}
        for k in self.KEYS:
            lines[k] = structure.insert(page_va(k), k, TlbEntry(1))[0]
        expected = sorted(lines[k] for k in self.KEYS[:2])
        assert sorted(structure.vm_lines(1)) == expected
        assert sorted(structure.invalidate_vm(1)) == expected
        assert structure.vm_lines(1) == []
        assert structure.vm_lines(3) == [lines[self.KEYS[2]]]
