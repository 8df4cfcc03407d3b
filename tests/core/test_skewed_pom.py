"""Unit tests for the skew-associative unified POM-TLB (footnote 1)."""

import pytest

from repro.common import addr
from repro.common.config import PomTlbConfig, SystemConfig
from repro.common.errors import ConfigError
from repro.common.stats import StatRegistry
from repro.core.skewed_pom import SkewedPomTlb
from repro.core.system import Machine
from repro.tlb.entry import TlbEntry, TlbKey


def make_skewed(size_mb=1):
    cfg = SystemConfig(pom_tlb=PomTlbConfig(size_bytes=size_mb * addr.MiB))
    return SkewedPomTlb(cfg, StatRegistry())


def key(vpn, vm=0, asid=0, large=False):
    """Packed key — the representation the skewed POM-TLB is keyed by."""
    return TlbKey(vm_id=vm, asid=asid, vpn=vpn, large=large).pack()


def va(k):
    """Virtual address of the page a packed key names."""
    return (k >> 33) << addr.page_shift(bool(k & 1))


def lines(pom, k):
    return [line for line, _pos in pom.candidates(va(k), k)]


class TestStructure:
    def test_insert_then_probe_some_way_hits(self):
        pom = make_skewed()
        pom.insert(va(key(5)), key(5), TlbEntry(ppn=9))
        found = [pom.probe_slot(key(5), pos)
                 for _line, pos in pom.candidates(va(key(5)), key(5))]
        hits = [e for e in found if e is not None]
        assert len(hits) == 1 and hits[0].ppn == 9

    def test_unified_storage_holds_both_sizes(self):
        pom = make_skewed()
        small, large = key(5, large=False), key(5, large=True)
        pom.insert(va(small), small, TlbEntry(1))
        pom.insert(va(large), large, TlbEntry(2))
        assert pom.contains(va(small), small)
        assert pom.contains(va(large), large)
        occupancy = pom.occupancy()
        assert occupancy == {"small": 1, "large": 1}

    def test_reinsert_updates_in_place(self):
        pom = make_skewed()
        pom.insert(va(key(5)), key(5), TlbEntry(1))
        pom.insert(va(key(5)), key(5), TlbEntry(2))
        assert sum(pom.occupancy().values()) == 1

    def test_ways_use_different_hashes(self):
        pom = make_skewed()
        candidates = lines(pom, key(12345))
        assert len(candidates) == 4
        assert len(set(candidates)) >= 2  # skewing: not all the same index

    def test_lines_live_in_distinct_way_regions(self):
        pom = make_skewed()
        way_bytes = pom.config.size_bytes // 4
        regions = {(line - pom.config.base_address) // way_bytes
                   for line in lines(pom, key(12345))}
        assert regions == {0, 1, 2, 3}

    def test_candidate_lines_are_line_aligned(self):
        pom = make_skewed()
        k = key(0x123456789 >> 12, vm=3, asid=1)
        for line in lines(pom, k):
            assert line % 64 == 0
            assert pom.config.contains(line)

    def test_asid_changes_the_candidates(self):
        # The way hashes mix the ASID in: callers must probe with the
        # full key, not a (vaddr, vm) pair.
        pom = make_skewed()
        assert lines(pom, key(77, vm=3, asid=0)) != \
            lines(pom, key(77, vm=3, asid=1))


class TestEviction:
    def test_eviction_only_when_all_candidates_full(self):
        pom = make_skewed()
        # Insert far fewer entries than capacity: no evictions expected.
        for vpn in range(200):
            _line, evicted = pom.insert(va(key(vpn)), key(vpn),
                                        TlbEntry(vpn))
            assert evicted is None

    def test_lru_among_candidates(self):
        pom = make_skewed()
        # Force conflicts by shrinking: emulate via direct slot collisions
        # is hash-dependent; instead verify the invariant that an evicted
        # key is no longer resident.
        evictions = 0
        for vpn in range(200000):
            _line, evicted = pom.insert(va(key(vpn)), key(vpn), TlbEntry(1))
            if evicted is not None:
                evictions += 1
                assert not pom.contains(va(evicted), evicted)
                break
        # 1MiB = 64Ki entries; 200k inserts must evict eventually.
        assert evictions == 1


class TestInvalidation:
    def test_invalidate_present(self):
        pom = make_skewed()
        pom.insert(va(key(5)), key(5), TlbEntry(1))
        line = pom.invalidate(va(key(5)), key(5))
        assert line in lines(pom, key(5))
        assert not pom.contains(va(key(5)), key(5))

    def test_invalidate_absent(self):
        pom = make_skewed()
        assert pom.invalidate(va(key(5)), key(5)) is None

    def test_invalidate_vm(self):
        pom = make_skewed()
        for k in (key(1, vm=1), key(2, vm=2)):
            pom.insert(va(k), k, TlbEntry(1))
        dropped = pom.invalidate_vm(1)
        assert len(dropped) == 1  # one line address per dropped entry
        assert sum(pom.occupancy().values()) == 1


class TestSchemeIntegration:
    def test_scheme_eliminates_walks(self):
        m = Machine(SystemConfig(num_cores=1), scheme="pom_skewed")
        page = m.touch(0, 1, 0x1000)
        m.scheme.translate(0, 0, 1, 0x1000, page)
        for tlbs in m.scheme.cores:
            tlbs.l1_small.flush()
            tlbs.l2.flush()
        m.scheme.translate(0, 0, 1, 0x1000, page)
        assert m.stats["mmu"]["page_walks"] == 1  # second hit in POM

    def test_scheme_shootdown(self):
        m = Machine(SystemConfig(num_cores=1), scheme="pom_skewed")
        page = m.touch(0, 1, 0x1000)
        m.scheme.translate(0, 0, 1, 0x1000, page)
        m.scheme.shootdown(0, 1, 0x1000, large=False)
        m.scheme.translate(0, 0, 1, 0x1000, page)
        assert m.stats["mmu"]["page_walks"] == 2

    def test_hit_rate_reporting(self):
        pom = make_skewed()
        pom.insert(va(key(5)), key(5), TlbEntry(1))
        assert pom.probe(va(key(5)), key(5)) is not None
        assert pom.probe(va(key(99)), key(99)) is None
        assert pom.hit_rate() == pytest.approx(0.5)

    def test_prefetch_is_rejected(self):
        # Next-page prefetch fetches the partitioned layout's next set;
        # the skewed organisation has no such line to fetch.
        config = SystemConfig(num_cores=1, tlb_prefetch=True)
        with pytest.raises(ConfigError, match="pom_skewed.*tlb_prefetch"):
            Machine(config, scheme="pom_skewed")
        assert Machine(config, scheme="pom").scheme._prefetch
