"""Unit tests for the 2-D nested walker (paper Figure 1)."""

import pytest

from repro.common import addr
from repro.common.config import WalkCacheConfig
from repro.common.errors import TranslationFault
from repro.common.stats import StatGroup
from repro.paging.nested import MAX_NESTED_REFS, NestedWalker
from repro.paging.walk_cache import PagingStructureCache
from repro.vmm.memory_manager import PhysicalMemory
from repro.vmm.thp import ThpPolicy
from repro.vmm.vm import VirtualMachine
from tests.paging.helpers import CountingMemory, plant, table_base


def make_walker(vm):
    """A walker over ``vm``'s tables with empty PSCs of its own."""
    mem = CountingMemory()
    walker = NestedWalker(
        guest_table=vm.process(1).guest_table,
        host_table=vm.host_table,
        guest_psc=PagingStructureCache(WalkCacheConfig(), StatGroup("gpsc")),
        host_psc=PagingStructureCache(WalkCacheConfig(), StatGroup("hpsc")),
        read_pte=mem,
        stats=StatGroup("nested"),
    )
    return walker, mem


def make_setup(large_fraction=0.0):
    host = PhysicalMemory(base=0, size_bytes=4 * addr.GiB)
    vm = VirtualMachine(0, host, ThpPolicy(large_fraction, seed=1))
    walker, mem = make_walker(vm)
    return vm, walker, mem


class TestColdNestedWalk:
    def test_cold_walk_ref_count_bounded_by_24(self):
        vm, walker, mem = make_setup()
        vm.touch(1, 0x1000)
        walker.guest_psc.flush()
        walker.host_psc.flush()
        mem.addresses.clear()
        outcome = walker.walk(0x1234)
        assert outcome.memory_refs <= MAX_NESTED_REFS
        # Even with the host PSC warming *within* the walk, a cold 2-D
        # walk costs far more than a native 4-ref walk.
        assert outcome.memory_refs >= 10
        assert len(mem.addresses) == outcome.memory_refs

    def test_first_walk_translates_correctly(self):
        vm, walker, _ = make_setup()
        page = vm.touch(1, 0x1000)
        outcome = walker.walk(0x1234)
        assert outcome.host_frame == page.host_frame
        assert outcome.translate(0x1234) == page.host_frame | 0x234

    def test_pte_addresses_are_host_physical(self):
        vm, walker, mem = make_setup()
        vm.touch(1, 0x1000)
        mem.addresses.clear()
        walker.walk(0x1000)
        limit = vm.host_memory.base + vm.host_memory.size_bytes
        assert all(vm.host_memory.base <= a < limit for a in mem.addresses)


class TestWarmNestedWalk:
    def test_warm_walk_is_much_cheaper(self):
        vm, walker, _ = make_setup()
        vm.touch(1, 0x1000)
        cold = walker.walk(0x1000)
        warm = walker.walk(0x1000)
        assert warm.memory_refs < cold.memory_refs
        # Combined guest PSC hit: 1 guest PTE + short host walk of data gPA.
        assert warm.memory_refs <= 3

    def test_neighbour_page_benefits_from_pscs(self):
        vm, walker, _ = make_setup()
        vm.touch(1, 0x1000)
        vm.touch(1, 0x2000)
        walker.walk(0x1000)
        assert walker.walk(0x2000).memory_refs <= 3


class TestLargePages:
    def test_large_guest_page_walk(self):
        vm, walker, _ = make_setup(large_fraction=1.0)
        page = vm.touch(1, 0x1000)
        assert page.large
        outcome = walker.walk(0x1234)
        assert outcome.large
        assert outcome.translate(0x1234) == page.host_frame | 0x1234

    def test_large_page_cold_walk_has_fewer_refs(self):
        vm_small, walker_small, _ = make_setup(large_fraction=0.0)
        vm_large, walker_large, _ = make_setup(large_fraction=1.0)
        vm_small.touch(1, 0x1000)
        vm_large.touch(1, 0x1000)
        cold_small = walker_small.walk(0x1000).memory_refs
        cold_large = walker_large.walk(0x1000).memory_refs
        assert cold_large < cold_small


class TestStats:
    def test_nested_counters(self):
        vm, walker, _ = make_setup()
        vm.touch(1, 0x1000)
        walker.walk(0x1000)
        assert walker.stats["nested_walks"] == 1
        assert walker.stats["nested_refs"] > 0
        assert walker.stats["nested_cycles"] > 0


class TestErrorPaths:
    """A stale PSC base is re-walked from the root; unmapped faults."""

    def assert_same_as_empty_pscs(self, vm, walker, mem, gva):
        fresh, fresh_mem = make_walker(vm)
        assert walker.walk(gva) == fresh.walk(gva)
        assert mem.addresses == fresh_mem.addresses
        assert walker.guest_psc.sizes() == fresh.guest_psc.sizes()
        assert walker.host_psc.sizes() == fresh.host_psc.sizes()
        return fresh

    def test_stale_guest_psc_base_rewalks_from_root(self):
        vm, walker, mem = make_setup()
        gva = 0x1234
        vm.touch(1, gva)
        guest_table = vm.process(1).guest_table
        real = table_base(guest_table, gva, 1)
        # A PDE-cache entry whose gPA base is not the live level-1 table.
        plant(walker.guest_psc, gva, 1, (real + addr.SMALL_PAGE_SIZE, 0))
        fresh = self.assert_same_as_empty_pscs(vm, walker, mem, gva)
        assert walker.stats["guest_psc_stale"] == 1
        assert walker.stats["host_psc_stale"] == 0
        # The stale probe counted as a hit; the empty walker missed.
        assert walker.guest_psc.stats["pde_hits"] == 1
        assert fresh.guest_psc.stats["pde_hits"] == 0

    def test_stale_host_psc_base_rewalks_from_root(self):
        vm, walker, mem = make_setup()
        gva = 0x1234
        vm.touch(1, gva)
        # The first host column translates the gPA of the guest root's
        # PTE; plant a wrong level-1 table base for it.
        gpa = table_base(vm.process(1).guest_table, 0, 4)
        real = table_base(vm.host_table, gpa, 1)
        plant(walker.host_psc, gpa, 1, real + addr.SMALL_PAGE_SIZE)
        fresh = self.assert_same_as_empty_pscs(vm, walker, mem, gva)
        assert walker.stats["host_psc_stale"] == 1
        assert walker.stats["guest_psc_stale"] == 0
        assert (walker.host_psc.stats["pde_hits"]
                == fresh.host_psc.stats["pde_hits"] + 1)

    def test_unmapped_gva_faults_in_guest_table(self):
        vm, walker, mem = make_setup()
        vm.touch(1, 0x1000)
        walker.walk(0x1000)
        gva = 0x4000_0000
        with pytest.raises(TranslationFault) as info:
            walker.walk(gva)
        assert info.value.space == vm.process(1).guest_table.name
        assert info.value.vaddr == gva

    def test_unmapped_gpa_faults_in_host_table(self):
        vm, walker, mem = make_setup()
        page = vm.touch(1, 0x1000)
        vm.host_table.unmap_page(page.guest_frame, large=page.large)
        with pytest.raises(TranslationFault) as info:
            walker.walk(0x1234)
        assert info.value.space == vm.host_table.name
        assert info.value.vaddr == page.guest_frame
