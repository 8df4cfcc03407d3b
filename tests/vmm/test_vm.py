"""Unit tests for VMs, guest processes and demand paging."""

import pytest

from repro.common import addr
from repro.vmm.memory_manager import PhysicalMemory
from repro.vmm.thp import ThpPolicy
from repro.vmm.vm import Host, NativeProcess, VirtualMachine
from tests.paging.helpers import table_base


def make_vm(large_fraction=0.0):
    host = PhysicalMemory(base=0, size_bytes=8 * addr.GiB)
    return VirtualMachine(0, host, ThpPolicy(large_fraction, seed=1))


class TestDemandPaging:
    def test_touch_maps_both_dimensions(self):
        vm = make_vm()
        page = vm.touch(1, 0x1000)
        proc = vm.process(1)
        # Guest table maps gVA -> gPA.
        assert proc.guest_table.lookup(0x1000).frame == page.guest_frame
        # Host table maps gPA -> hPA.
        assert vm.host_table.lookup(page.guest_frame).frame == page.host_frame

    def test_touch_is_idempotent(self):
        vm = make_vm()
        first = vm.touch(1, 0x1000)
        second = vm.touch(1, 0x1000)
        assert first == second
        assert len(vm.process(1).small_pages) == 1

    def test_same_page_different_offsets(self):
        vm = make_vm()
        a = vm.touch(1, 0x1000)
        b = vm.touch(1, 0x1FFF)
        assert a == b

    def test_resolve_untouched_is_none(self):
        vm = make_vm()
        assert vm.resolve(1, 0x1000) is None
        vm.touch(1, 0x1000)
        assert vm.resolve(1, 0x1000) is not None

    def test_resolve_unknown_process_is_none(self):
        vm = make_vm()
        assert vm.resolve(99, 0x1000) is None

    def test_large_page_covers_2mib(self):
        vm = make_vm(large_fraction=1.0)
        page = vm.touch(1, 0x1000)
        assert page.large
        assert vm.resolve(1, 0x1FFFFF) == page
        assert vm.resolve(1, addr.LARGE_PAGE_SIZE) != page or \
            vm.resolve(1, addr.LARGE_PAGE_SIZE) is None

    def test_guest_table_frames_are_host_mapped(self):
        vm = make_vm()
        vm.touch(1, 0x1000)
        root_gpa = table_base(vm.process(1).guest_table, 0, 4)
        assert vm.host_table.lookup(root_gpa) is not None

    def test_processes_are_isolated(self):
        vm = make_vm()
        a = vm.touch(1, 0x1000)
        b = vm.touch(2, 0x1000)
        assert a.host_frame != b.host_frame

    def test_footprint(self):
        vm = make_vm()
        vm.touch(1, 0x1000)
        vm.touch(1, 0x5000)
        assert vm.process(1).footprint_bytes == 2 * addr.SMALL_PAGE_SIZE


class TestUnmap:
    def test_unmap_removes_mapping(self):
        vm = make_vm()
        page = vm.touch(1, 0x1000)
        assert vm.unmap(1, 0x1000) == page
        assert vm.resolve(1, 0x1000) is None
        assert vm.process(1).guest_table.lookup(0x1000) is None

    def test_unmap_untouched_returns_none(self):
        vm = make_vm()
        assert vm.unmap(1, 0x1000) is None

    def test_retouch_after_unmap_reuses_reclaimed_frame(self):
        # unmap releases both frames; the LIFO free list hands them
        # straight back on the retouch, so memory does not grow.
        vm = make_vm()
        old = vm.touch(1, 0x1000)
        host_bytes = vm.host_memory.bytes_allocated
        vm.unmap(1, 0x1000)
        assert vm.host_memory.bytes_allocated < host_bytes
        new = vm.touch(1, 0x1000)
        assert new.host_frame == old.host_frame
        assert new.guest_frame == old.guest_frame
        assert vm.host_memory.bytes_allocated == host_bytes


class TestNativeProcess:
    def test_touch_maps_directly_to_host(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        proc = NativeProcess(1, mem, ThpPolicy(0.0))
        page = proc.touch(0x1000)
        assert page.guest_frame == page.host_frame
        assert proc.page_table.lookup(0x1000).frame == page.host_frame

    def test_large_pages(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        proc = NativeProcess(1, mem, ThpPolicy(1.0))
        page = proc.touch(0x1000)
        assert page.large
        assert proc.resolve(addr.LARGE_PAGE_SIZE - 1) == page


class TestHost:
    def test_create_vm(self):
        host = Host(memory_bytes=8 * addr.GiB)
        vm = host.create_vm(1, ThpPolicy(0.0))
        assert host.vms[1] is vm

    def test_duplicate_vm_id_rejected(self):
        host = Host(memory_bytes=8 * addr.GiB)
        host.create_vm(1, ThpPolicy(0.0))
        with pytest.raises(ValueError):
            host.create_vm(1, ThpPolicy(0.0))

    def test_vms_share_host_memory(self):
        host = Host(memory_bytes=8 * addr.GiB)
        a = host.create_vm(1, ThpPolicy(0.0))
        b = host.create_vm(2, ThpPolicy(0.0))
        pa = a.touch(1, 0x1000)
        pb = b.touch(1, 0x1000)
        assert pa.host_frame != pb.host_frame
