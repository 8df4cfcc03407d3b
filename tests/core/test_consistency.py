"""Shootdown / VM-invalidation consistency tests across all 5 schemes.

The paper's mostly-inclusive consistency model (Section 2.1) requires
that an explicit invalidation reaches every structure that may hold the
translation: the private L1/L2 SRAM TLBs, the scheme's backing structure
(POM-TLB / shared TLB / TSB), and any data-cache copy of the backing
structure's 64 B lines.  These tests lock in two defects:

* shootdown size asymmetry — the front end used to drop only the
  caller-supplied page size from the private TLBs while every backend
  drops both sizes, so a stale other-size entry survived privately;
* VM-level invalidation staleness — ``invalidate_vm`` dropped POM-TLB /
  TSB entries without invalidating the cached copies of their lines,
  so the L2D$/L3D$ kept serving dead sets.
"""

import pytest

from repro.common.config import SystemConfig
from repro.core.mmu import _key_for
from repro.core.system import Machine
from repro.tlb.entry import TlbEntry, pack_key

SCHEMES = ["baseline", "pom", "pom_skewed", "shared_l2", "tsb"]


def make_machine(scheme, cores=2):
    return Machine(SystemConfig(num_cores=cores), scheme=scheme, seed=3)


def plant_both_sizes(scheme_obj, vm=0, asid=1, va=0x3000):
    """Install translations of *both* page sizes for ``va`` privately.

    A THP promotion (or demotion) leaves exactly this state behind: the
    old-size entry is stale but still resident until a shootdown.
    """
    key_small = _key_for(vm, asid, va, False)
    key_large = _key_for(vm, asid, va, True)
    for tlbs in scheme_obj.cores:
        tlbs.l1_small.insert(key_small, TlbEntry(1))
        tlbs.l1_large.insert(key_large, TlbEntry(1))
        tlbs.l2.insert(key_small, TlbEntry(1))
        tlbs.l2.insert(key_large, TlbEntry(1))
    return key_small, key_large


class TestShootdownDropsBothSizes:
    """Front end and backends must agree: a shootdown drops both sizes."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("requested_large", [False, True])
    def test_other_size_does_not_survive_privately(self, scheme,
                                                   requested_large):
        machine = make_machine(scheme)
        key_small, key_large = plant_both_sizes(machine.scheme)
        machine.scheme.shootdown(0, 1, 0x3000, requested_large)
        for tlbs in machine.scheme.cores:
            assert not tlbs.l1_small.contains(key_small)
            assert not tlbs.l1_large.contains(key_large)
            assert not tlbs.l2.contains(key_small), \
                "small-page entry survived the shootdown in a private L2"
            assert not tlbs.l2.contains(key_large), \
                "large-page entry survived the shootdown in a private L2"

    def test_backend_agrees_with_front_end_pom(self):
        """After the shootdown neither size is anywhere: private or POM."""
        machine = make_machine("pom")
        pom = machine.scheme.pom
        va, vm, asid = 0x3000, 0, 1
        key_small, key_large = plant_both_sizes(machine.scheme)
        pom.insert(va, key_small, TlbEntry(1), vm, False)
        pom.insert(va, key_large, TlbEntry(1), vm, True)
        machine.scheme.shootdown(vm, asid, va, False)
        assert not pom.contains(va, key_small, vm, False)
        assert not pom.contains(va, key_large, vm, True)
        for tlbs in machine.scheme.cores:
            assert not tlbs.l2.contains(key_large)

    def test_shared_l2_shadow_drops_both_sizes(self):
        """The shadows (the private L2s) and the shared array agree."""
        machine = make_machine("shared_l2")
        scheme = machine.scheme
        key_small, key_large = plant_both_sizes(scheme)
        scheme.shared.insert(key_small, TlbEntry(1))
        scheme.shared.insert(key_large, TlbEntry(1))
        scheme.shootdown(0, 1, 0x3000, True)
        for tlb in [tlbs.l2 for tlbs in scheme.cores] + [scheme.shared]:
            assert not tlb.contains(key_small)
            assert not tlb.contains(key_large)


class TestShootdownOfUnmappedPage:
    """``Machine.shootdown`` after the mapping is gone drops both sizes.

    The fallback used to assume ``large=False`` when the page could not
    be resolved (the mapping was already unmapped — the common shootdown
    ordering).  The size is unknowable then, so the invalidation must
    drop *both* page sizes end-to-end; a THP page that was demoted and
    unmapped would otherwise leave its large-size entry resident
    forever.
    """

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_large_entry_dropped_when_mapping_is_gone(self, scheme):
        machine = make_machine(scheme)
        va, vm, asid = 0x3000, 0, 1
        machine.touch(vm, asid, 0x1000)  # boot the VM/process
        # A large-page entry survives from before the (unmapped) page
        # went away — e.g. a THP demotion the IPI is catching up with.
        key_small, key_large = plant_both_sizes(machine.scheme,
                                                vm=vm, asid=asid, va=va)
        assert machine.host.vms[vm].resolve(asid, va) is None
        machine.shootdown(vm, asid, va)
        for tlbs in machine.scheme.cores:
            assert not tlbs.l1_large.contains(key_large), \
                "unmapped-page shootdown left the large-size L1 entry"
            assert not tlbs.l2.contains(key_large), \
                "unmapped-page shootdown left the large-size L2 entry"
            assert not tlbs.l1_small.contains(key_small)
            assert not tlbs.l2.contains(key_small)

    def test_pom_backend_drops_both_sizes_when_unmapped(self):
        machine = make_machine("pom")
        pom = machine.scheme.pom
        va, vm, asid = 0x3000, 0, 1
        machine.touch(vm, asid, 0x1000)
        key_small, key_large = plant_both_sizes(machine.scheme,
                                                vm=vm, asid=asid, va=va)
        pom.insert(va, key_small, TlbEntry(1), vm, False)
        pom.insert(va, key_large, TlbEntry(1), vm, True)
        machine.shootdown(vm, asid, va)
        assert not pom.contains(va, key_small, vm, False)
        assert not pom.contains(va, key_large, vm, True)

    def test_native_shootdown_does_not_create_a_process(self):
        """The native fallback resolved via ``_native_process`` — which
        *creates* the process (allocating a root table frame) as a side
        effect of what should be a pure invalidation."""
        machine = Machine(SystemConfig(num_cores=1, virtualized=False),
                          scheme="pom", seed=3)
        before = machine.host.memory.bytes_allocated
        machine.shootdown(0, 42, 0x5000)
        assert 42 not in machine._native_processes
        assert machine.host.memory.bytes_allocated == before


class TestInvalidateVmReportsLines:
    """invalidate_vm must report the touched set/line addresses."""

    def test_pom_returns_set_addresses(self):
        machine = make_machine("pom")
        pom = machine.scheme.pom
        k1 = pack_key(1, 1, 0x1, False)
        k2 = pack_key(1, 1, 0x300, True)
        k3 = pack_key(2, 1, 0x2, False)
        pom.insert(0x1000, k1, TlbEntry(1), 1, False)
        pom.insert(0x60000000, k2, TlbEntry(2), 1, True)
        pom.insert(0x2000, k3, TlbEntry(3), 2, False)
        dropped = pom.invalidate_vm(1)
        assert len(dropped) == 2
        addressing = pom.addressing
        assert addressing.set_address(0x1000, 1, False) in dropped
        assert addressing.set_address(0x60000000, 1, True) in dropped
        for paddr in dropped:
            assert addressing.config.contains(paddr)

    def test_skewed_returns_line_addresses(self):
        machine = make_machine("pom_skewed")
        pom = machine.scheme.pom
        k1 = pack_key(1, 1, 0x1, False)
        k2 = pack_key(2, 1, 0x2, False)
        pom.insert(0x1000, k1, TlbEntry(1))
        pom.insert(0x2000, k2, TlbEntry(2))
        dropped = pom.invalidate_vm(1)
        assert len(dropped) == 1
        assert dropped[0] in [line for line, _pos
                              in pom.candidates(0x1000, k1)]
        assert not pom.contains(0x1000, k1)
        assert pom.contains(0x2000, k2)

    def test_tsb_invalidate_vm_returns_entry_addresses(self):
        machine = make_machine("tsb")
        tsb = machine.scheme.tsb
        tsb.fill_guest(1, 1, 0x10, False, 0x4000)
        tsb.fill_host(1, 0x4, 0x8000)
        tsb.fill_guest(2, 1, 0x20, False, 0x5000)
        dropped = tsb.invalidate_vm(1)
        assert len(dropped) == 2
        assert tsb.probe_guest(1, 1, 0x10, False) is None
        assert tsb.probe_guest(2, 1, 0x20, False) is not None


class TestInvalidateVmCacheCoherence:
    """Machine-level VM invalidation must drop cached backing lines."""

    def _run_some(self, machine, vm=0, asid=1, n=64):
        for i in range(n):
            va = 0x10000 + i * 0x1000
            page = machine.touch(vm, asid, va)
            machine.scheme.translate(0, vm, asid, va, page)

    @pytest.mark.parametrize("scheme", ["pom", "pom_skewed"])
    def test_no_stale_cached_tlb_line_after_invalidate_vm(self, scheme):
        # Lines cached for sets that never held a dropped entry stay —
        # they are coherent (other VMs share the set space) — but every
        # set that *lost* an entry must leave the L2D$/L3D$.
        machine = make_machine(scheme)
        self._run_some(machine)
        hierarchy = machine.hierarchy
        pom = machine.scheme.pom
        occupied = set(pom.vm_lines(0))  # the only VM that ran
        cached_before = occupied & set(hierarchy.tlb_lines())
        assert cached_before, "expected cached POM-TLB set lines"
        dropped = machine.invalidate_vm(0)
        assert dropped > 0
        still_cached = set(hierarchy.tlb_lines())
        stale = cached_before & still_cached
        assert not stale, (
            "L2D$/L3D$ still serve POM-TLB lines of the torn-down VM")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_invalidate_vm_empties_private_tlbs(self, scheme):
        machine = make_machine(scheme)
        self._run_some(machine)
        machine.invalidate_vm(0)
        for tlbs in machine.scheme.cores:
            assert len(tlbs.l1_small) == 0
            assert len(tlbs.l1_large) == 0
            assert len(tlbs.l2) == 0

    def test_multi_vm_invalidate_is_selective(self):
        machine = make_machine("pom")
        self._run_some(machine, vm=0)
        self._run_some(machine, vm=1)
        machine.invalidate_vm(0)
        pom = machine.scheme.pom
        survivors = [key for _large, _index, key in pom.resident()]
        assert survivors, "VM 1's translations must survive"
        assert all((key >> 1) & 0xFFFF == 1 for key in survivors)
        for tlbs in machine.scheme.cores:
            for tlb in (tlbs.l1_small, tlbs.l1_large, tlbs.l2):
                assert all(k.vm_id == 1 for k in tlb.keys())

    def test_tsb_invalidate_vm_drops_cached_entry_lines(self):
        machine = make_machine("tsb")
        self._run_some(machine)
        tsb = machine.scheme.tsb
        addresses = [tsb.guest_entry_address(0, 1, (0x10000 + i * 0x1000) >> 12)
                     for i in range(64)]
        cached_before = [a for a in addresses
                         if any(machine.hierarchy.l2(c).contains(a)
                                for c in range(machine.config.num_cores))
                         or machine.hierarchy.l3.contains(a)]
        assert cached_before, "expected cached TSB entry lines"
        machine.invalidate_vm(0)
        for a in cached_before:
            for c in range(machine.config.num_cores):
                assert not machine.hierarchy.l2(c).contains(a)
            assert not machine.hierarchy.l3.contains(a)
