"""The fused hot paths equal the step-by-step operations they replace.

* the deferred :class:`LogHistogram` (pending list, folded on read)
  equals an eager copy fed through ``record_many(value, 1)``;
* ``CacheHierarchy.tlb_line_refill`` equals ``invalidate_tlb_line`` then
  ``tlb_line_fill``, and ``invalidate_lines`` equals the per-address
  calls, on random cache states (set order, line kinds, counters),
  with LRU and with ``tlb_priority`` victims;
* the one-pass ``invalidate_vm``/``flush`` scans
  equal the per-set scans they replaced: same surviving entries, the
  same multiset of set addresses and the same ``shootdowns`` counts.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.common import addr
from repro.common.config import (CacheConfig, PomTlbConfig, SystemConfig,
                                 TlbConfig)
from repro.common.stats import StatGroup, StatRegistry
from repro.core.pom_tlb import PomTlb
from repro.core.skewed_pom import SkewedPomTlb
from repro.obs.histogram import LogHistogram
from repro.tlb.entry import (KEY_VM_FIELD_MASK, TlbEntry, pack_context,
                             pack_key)
from repro.tlb.tlb import SramTlb

# -- deferred histogram -------------------------------------------------------

values = st.one_of(st.integers(-1000, 300), st.integers(-(1 << 40), 1 << 63),
                   st.sampled_from([0, -1, (1 << 32) - 1, 1 << 32,
                                    (1 << 32) + 1, (1 << 64) - 1]))
histogram_ops = st.lists(st.one_of(
    st.tuples(st.just("record"), values),
    st.tuples(st.just("record_many"), values, st.integers(-2, 50)),
    st.tuples(st.just("read"), st.sampled_from(
        ["count", "total", "min", "max", "p50", "p99", "buckets", "fold"])),
    st.tuples(st.just("reset")),
    st.tuples(st.just("roundtrip")),
    st.tuples(st.just("pickle")),
), max_size=80)


def _read(histogram, what):
    if what == "fold":
        histogram.fold()
        return None
    if what == "buckets":
        return histogram.buckets()
    return getattr(histogram, what)


class TestDeferredHistogram:
    @settings(max_examples=150, deadline=None)
    @given(histogram_ops)
    def test_equals_eager_reference(self, ops):
        deferred = LogHistogram("h")
        eager = LogHistogram("h")
        for op in ops:
            kind = op[0]
            if kind == "record":
                deferred.record(op[1])
                eager.record_many(op[1], 1)
            elif kind == "record_many":
                deferred.record_many(op[1], op[2])
                eager.record_many(op[1], op[2])
            elif kind == "read":
                assert _read(deferred, op[1]) == _read(eager, op[1])
            elif kind == "reset":
                deferred.reset()
                eager.reset()
            elif kind == "roundtrip":
                deferred = LogHistogram.from_dict(deferred.as_dict())
            else:
                deferred = pickle.loads(pickle.dumps(deferred))
            assert not eager.pending
        assert deferred.as_dict() == eager.as_dict()

    def test_hoisted_record_survives_reset(self):
        histogram = LogHistogram()
        record = histogram.record
        record(5)
        histogram.reset()
        record(7)
        assert histogram.count == 1 and histogram.max == 7


# -- fused cache-hierarchy operations -----------------------------------------

def tiny_config(l4: bool) -> SystemConfig:
    return SystemConfig(
        num_cores=2,
        l1d=CacheConfig(name="l1d", size_bytes=1 * addr.KiB, ways=2,
                        latency_cycles=4),
        l2d=CacheConfig(name="l2d", size_bytes=2 * addr.KiB, ways=2,
                        latency_cycles=12),
        l3d=CacheConfig(name="l3d", size_bytes=4 * addr.KiB, ways=4,
                        latency_cycles=42),
        l4_data_cache_bytes=64 * addr.KiB if l4 else 0)


lines = st.integers(0, (1 << 15) - 1).map(lambda a: a & ~7)
cache_ops = st.lists(st.tuples(
    st.sampled_from(["load", "tlb_fill", "tlb_probe"]),
    st.integers(0, 1), lines), max_size=150)


def build_hierarchy(ops, tlb_priority, l4):
    stats = StatRegistry()
    hierarchy = CacheHierarchy(tiny_config(l4), stats,
                               tlb_priority=tlb_priority)
    for op, core, paddr in ops:
        if op == "load":
            hierarchy.data_access(core, paddr)
        elif op == "tlb_fill":
            hierarchy.tlb_line_fill(core, paddr)
        else:
            hierarchy.tlb_line_probe(core, paddr)
    return hierarchy, stats


def snapshot(hierarchy, stats):
    caches = hierarchy.all_caches()
    l4 = hierarchy.l4
    return ([[list(tags.items()) for tags in cache._tags] for cache in caches],
            stats.as_nested_dict(),
            dict(l4._lines) if l4 is not None else None)


class TestFusedCacheOperations:
    @settings(max_examples=120, deadline=None)
    @given(cache_ops, st.integers(0, 1), lines, st.booleans(), st.booleans())
    def test_tlb_line_refill_equals_invalidate_then_fill(
            self, ops, core, paddr, tlb_priority, l4):
        fused, fused_stats = build_hierarchy(ops, tlb_priority, l4)
        steps, steps_stats = build_hierarchy(ops, tlb_priority, l4)
        fused.tlb_line_refill(core, paddr)
        steps.invalidate_tlb_line(paddr)
        steps.tlb_line_fill(core, paddr)
        assert snapshot(fused, fused_stats) == snapshot(steps, steps_stats)

    @settings(max_examples=120, deadline=None)
    @given(cache_ops, st.lists(lines, max_size=40), st.booleans(),
           st.booleans(), st.booleans())
    def test_invalidate_lines_equals_per_address_calls(
            self, ops, doomed, tlb_only, tlb_priority, l4):
        fused, fused_stats = build_hierarchy(ops, tlb_priority, l4)
        steps, steps_stats = build_hierarchy(ops, tlb_priority, l4)
        fused.invalidate_lines(doomed, tlb_only=tlb_only)
        for paddr in doomed:
            if tlb_only:
                steps.invalidate_tlb_line(paddr)
            else:
                steps.invalidate_line(paddr)
        assert snapshot(fused, fused_stats) == snapshot(steps, steps_stats)


# -- one-pass teardown scans --------------------------------------------------

translations = st.lists(st.tuples(
    st.integers(0, 3),                      # vm_id
    st.integers(0, 3),                      # asid
    st.integers(0, (1 << 36) - 1),          # vaddr >> 12
    st.booleans()), max_size=150)


def _reference_sram_drop(tlb, predicate):
    """The per-set scan the one-pass ``SramTlb._drop`` replaced."""
    dropped = 0
    for entries in tlb._sets:
        doomed = [key for key in entries if predicate(key)]
        for key in doomed:
            del entries[key]
        dropped += len(doomed)
    if dropped:
        tlb.stats.inc("shootdowns", dropped)
    return dropped


def _reference_pom_invalidate_vm(pom, vm_id):
    """The per-set scan the one-pass ``PomTlb.invalidate_vm`` replaced."""
    vm_bits = pack_context(vm_id, 0) & KEY_VM_FIELD_MASK
    touched = []
    for large, sets in enumerate(pom._sets):
        base = pom._large_base if large else pom._small_base
        for index, entries in sets.items():
            doomed = [k for k in entries if k & KEY_VM_FIELD_MASK == vm_bits]
            for k in doomed:
                del entries[k]
            touched.extend([base + index * addr.CACHE_LINE_SIZE] * len(doomed))
    if touched:
        pom.stats.inc("shootdowns", len(touched))
    return touched


def _reference_skewed_invalidate_vm(pom, vm_id):
    vm_bits = pack_context(vm_id, 0) & KEY_VM_FIELD_MASK
    doomed = [pos for pos, (key, _e, _t) in pom._slots.items()
              if key & KEY_VM_FIELD_MASK == vm_bits]
    for pos in doomed:
        del pom._slots[pos]
    if doomed:
        pom.stats.inc("shootdowns", len(doomed))
    # Four 16 B slots to a 64 B line, numbered across the table.
    return [pom.config.base_address + (pos >> 2) * 64 for pos in doomed]


def filled_tlbs(items):
    config = TlbConfig(name="t", entries=32, ways=4, latency_cycles=1)
    tlbs = [SramTlb(config, StatGroup("t")) for _ in range(2)]
    for vm_id, asid, vpn, large in items:
        for tlb in tlbs:
            tlb.insert(pack_key(vm_id, asid, vpn, large), TlbEntry(vpn))
    return tlbs


def pom_config():
    return SystemConfig(pom_tlb=PomTlbConfig(size_bytes=8 * addr.KiB))


class TestOnePassTeardown:
    @settings(max_examples=80, deadline=None)
    @given(translations, st.integers(0, 3))
    def test_sram_tlb_scans(self, items, vm_id):
        fused, reference = filled_tlbs(items)
        vm_bits = pack_context(vm_id, 0)
        assert fused.invalidate_vm(vm_id) == _reference_sram_drop(
            reference, lambda k: k & KEY_VM_FIELD_MASK == vm_bits)
        assert [list(s.items()) for s in fused._sets] == \
            [list(s.items()) for s in reference._sets]
        assert fused.flush() == _reference_sram_drop(reference, lambda k: True)
        assert fused.stats.as_dict() == reference.stats.as_dict()

    @settings(max_examples=80, deadline=None)
    @given(translations, st.integers(0, 3))
    def test_pom_invalidate_vm(self, items, vm_id):
        fused = PomTlb(pom_config(), StatRegistry())
        reference = PomTlb(pom_config(), StatRegistry())
        for vm, asid, vpn, large in items:
            vaddr = vpn << addr.SMALL_PAGE_SHIFT
            key = pack_key(vm, asid, vaddr >> addr.page_shift(large), large)
            for pom in (fused, reference):
                pom.insert(vaddr, key, TlbEntry(vpn))
        assert sorted(fused.invalidate_vm(vm_id)) == \
            sorted(_reference_pom_invalidate_vm(reference, vm_id))
        assert fused.stats.as_dict() == reference.stats.as_dict()
        # The fused scan also drops emptied set dicts.
        assert [{index: list(entries.items())
                 for index, entries in sets.items()}
                for sets in fused._sets] == \
            [{index: list(entries.items())
              for index, entries in sets.items() if entries}
             for sets in reference._sets]

    @settings(max_examples=80, deadline=None)
    @given(translations, st.integers(0, 3))
    def test_skewed_invalidate_vm(self, items, vm_id):
        fused = SkewedPomTlb(pom_config(), StatRegistry())
        reference = SkewedPomTlb(pom_config(), StatRegistry())
        for vm, asid, vpn, large in items:
            key = pack_key(vm, asid, vpn >> (9 if large else 0), large)
            for pom in (fused, reference):
                pom.insert(vpn << addr.SMALL_PAGE_SHIFT, key, TlbEntry(vpn))
        assert sorted(fused.invalidate_vm(vm_id)) == \
            sorted(_reference_skewed_invalidate_vm(reference, vm_id))
        assert fused.stats.as_dict() == reference.stats.as_dict()
        assert list(fused._slots.items()) == list(reference._slots.items())
