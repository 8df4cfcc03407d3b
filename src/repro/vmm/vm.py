"""Virtual machines, guest processes and demand paging.

The :class:`Host` owns physical memory and the virtual machines.  Each
:class:`VirtualMachine` owns a guest-physical address space, a host page
table (gPA -> hPA, the EPT analogue) and its guest processes; each
:class:`GuestProcess` owns a guest page table (gVA -> gPA).

Pages are mapped on first touch (demand paging): touching a virtual
address allocates the guest-physical and host-physical frames, decides
the page size via the THP policy, and installs both table levels.  The
fast :meth:`VirtualMachine.resolve` path is O(1) dict lookups so the
simulator can call it per memory reference.

:class:`NativeProcess` models the bare-metal case (one table, VA -> hPA)
for the paper's native-vs-virtualized characterisation (Figures 2/3).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, NamedTuple, Optional

from ..common import addr
from ..paging.page_table import RadixPageTable
from .memory_manager import PhysicalMemory
from .thp import ThpPolicy

_LARGE_SHIFT = addr.LARGE_PAGE_SHIFT
_SMALL_SHIFT = addr.SMALL_PAGE_SHIFT
_new = tuple.__new__  # NamedTuple construction without a Python frame


class ResolvedPage(NamedTuple):
    """Fast-path result: everything the MMU needs about one page."""

    large: bool
    guest_frame: int  # gPA frame base (== host frame in native mode)
    host_frame: int   # hPA frame base


class GuestProcess:
    """One process inside a VM: an ASID and a guest page table."""

    def __init__(self, asid: int, guest_table: RadixPageTable) -> None:
        self.asid = asid
        self.guest_table = guest_table
        # Fast-path maps; keyed by small/large VPN respectively.
        self.small_pages: Dict[int, ResolvedPage] = {}
        self.large_pages: Dict[int, ResolvedPage] = {}

    def resolve(self, vaddr: int) -> Optional[ResolvedPage]:
        """O(1) lookup of the page backing ``vaddr`` (None if untouched)."""
        page = self.large_pages.get(vaddr >> addr.LARGE_PAGE_SHIFT)
        if page is not None:
            return page
        return self.small_pages.get(vaddr >> addr.SMALL_PAGE_SHIFT)

    @property
    def footprint_bytes(self) -> int:
        return (len(self.small_pages) * addr.SMALL_PAGE_SIZE
                + len(self.large_pages) * addr.LARGE_PAGE_SIZE)


def _alloc_guest_table_frame(guest_memory: PhysicalMemory,
                             host_memory: PhysicalMemory,
                             host_table: RadixPageTable,
                             guest_table_hpa: List[int]) -> int:
    """Guest page-table frames live in gPA space and are host-mapped."""
    gpa = guest_memory.alloc_frame(False)
    hpa = host_memory.alloc_frame(False)
    host_table.map_page(gpa, hpa, False)
    guest_table_hpa.append(hpa)
    return gpa


class VirtualMachine:
    """One VM: guest-physical space, host (EPT) table, guest processes."""

    def __init__(self, vm_id: int, host_memory: PhysicalMemory,
                 thp: ThpPolicy) -> None:
        self.vm_id = vm_id
        self.host_memory = host_memory
        self.thp = thp
        # Guest-physical space: sized generously; addresses are fictive.
        self.guest_memory = PhysicalMemory(base=0, size_bytes=256 * addr.GiB)
        self.host_table = RadixPageTable(host_memory.alloc_small,
                                         name=f"vm{vm_id}.host")
        self.processes: Dict[int, GuestProcess] = {}
        # hPA frames backing guest page-table frames: the gPA side dies
        # with the VM object, but these must be returned to the host
        # allocator on teardown.
        self._guest_table_hpa: List[int] = []

    # -- process management -----------------------------------------------

    def process(self, asid: int) -> GuestProcess:
        """Return (creating on first use) the guest process ``asid``."""
        proc = self.processes.get(asid)
        if proc is None:
            # A partial over the VM's parts, not a bound method: the
            # table must not point back at the VM (a reference cycle).
            allocator = partial(_alloc_guest_table_frame, self.guest_memory,
                                self.host_memory, self.host_table,
                                self._guest_table_hpa)
            guest_table = RadixPageTable(allocator,
                                         name=f"vm{self.vm_id}.guest{asid}")
            proc = GuestProcess(asid, guest_table)
            self.processes[asid] = proc
        return proc

    # -- teardown accounting ------------------------------------------------

    def host_frames(self) -> List[tuple]:
        """Every ``(frame, large)`` this VM holds in host-physical memory.

        Covers the guests' data pages, the hPA frames backing guest
        page-table frames, and the host (EPT) table's own frames — the
        complete set :meth:`Host.destroy_vm` must reclaim.
        """
        frames = [(hpa, False) for hpa in self._guest_table_hpa]
        frames.extend([(base, False)
                       for base in self.host_table.table_frames()])
        for proc in self.processes.values():
            frames.extend([(page.host_frame, False)
                           for page in proc.small_pages.values()])
            frames.extend([(page.host_frame, True)
                           for page in proc.large_pages.values()])
        return frames

    def live_bytes(self) -> int:
        """Host-physical bytes this VM currently pins (conservation law)."""
        small = (len(self._guest_table_hpa)
                 + self.host_table.table_count())
        large = 0
        for proc in self.processes.values():
            small += len(proc.small_pages)
            large += len(proc.large_pages)
        return (small * addr.SMALL_PAGE_SIZE + large * addr.LARGE_PAGE_SIZE)

    # -- demand paging ---------------------------------------------------

    def touch(self, asid: int, vaddr: int) -> ResolvedPage:
        """Ensure the page containing ``vaddr`` is fully mapped."""
        proc = self.processes.get(asid) or self.process(asid)
        large_vpn = vaddr >> _LARGE_SHIFT
        small_vpn = vaddr >> _SMALL_SHIFT
        page = (proc.large_pages.get(large_vpn)
                or proc.small_pages.get(small_vpn))
        if page is not None:
            return page
        large = self.thp.is_large_region(asid, large_vpn)
        gpa_frame = self.guest_memory.alloc_frame(large)
        hpa_frame = self.host_memory.alloc_frame(large)
        proc.guest_table.map_page(vaddr, gpa_frame, large)
        self.host_table.map_page(gpa_frame, hpa_frame, large)
        page = _new(ResolvedPage, (large, gpa_frame, hpa_frame))
        if large:
            proc.large_pages[large_vpn] = page
        else:
            proc.small_pages[small_vpn] = page
        return page

    def resolve(self, asid: int, vaddr: int) -> Optional[ResolvedPage]:
        """Fast path: the already-mapped page for ``vaddr`` or None."""
        proc = self.processes.get(asid)
        if proc is None:
            return None
        return proc.resolve(vaddr)

    def unmap(self, asid: int, vaddr: int) -> Optional[ResolvedPage]:
        """Remove a mapping (the shootdown trigger).  Returns what was mapped.

        Both table levels drop their leaves and both frames return to
        their allocators' free lists — leaving either in place would
        leak the frame (breaking allocation conservation) or let a
        nested walk keep resolving gPA to a freed host frame.
        """
        proc = self.processes.get(asid)
        if proc is None:
            return None
        page = proc.resolve(vaddr)
        if page is None:
            return None
        proc.guest_table.unmap_page(vaddr, large=page.large)
        self.host_table.unmap_page(page.guest_frame, large=page.large)
        if page.large:
            del proc.large_pages[vaddr >> addr.LARGE_PAGE_SHIFT]
        else:
            del proc.small_pages[vaddr >> addr.SMALL_PAGE_SHIFT]
        self.guest_memory.free_frame(page.guest_frame, large=page.large)
        self.host_memory.free_frame(page.host_frame, large=page.large)
        return page


class NativeProcess:
    """Bare-metal process: one page table straight to host-physical frames."""

    def __init__(self, asid: int, host_memory: PhysicalMemory,
                 thp: ThpPolicy) -> None:
        self.asid = asid
        self.host_memory = host_memory
        self.thp = thp
        self.page_table = RadixPageTable(host_memory.alloc_small,
                                         name=f"native{asid}")
        self.small_pages: Dict[int, ResolvedPage] = {}
        self.large_pages: Dict[int, ResolvedPage] = {}

    def touch(self, vaddr: int) -> ResolvedPage:
        """Ensure the page containing ``vaddr`` is mapped."""
        page = self.resolve(vaddr)
        if page is not None:
            return page
        large = self.thp.is_large_region(self.asid, vaddr >> addr.LARGE_PAGE_SHIFT)
        frame = self.host_memory.alloc_frame(large=large)
        self.page_table.map_page(vaddr, frame, large=large)
        page = _new(ResolvedPage, (large, frame, frame))
        if large:
            self.large_pages[vaddr >> addr.LARGE_PAGE_SHIFT] = page
        else:
            self.small_pages[vaddr >> addr.SMALL_PAGE_SHIFT] = page
        return page

    def resolve(self, vaddr: int) -> Optional[ResolvedPage]:
        page = self.large_pages.get(vaddr >> addr.LARGE_PAGE_SHIFT)
        if page is not None:
            return page
        return self.small_pages.get(vaddr >> addr.SMALL_PAGE_SHIFT)

    def live_bytes(self) -> int:
        """Host-physical bytes this process pins (conservation law)."""
        return (self.page_table.table_count() * addr.SMALL_PAGE_SIZE
                + len(self.small_pages) * addr.SMALL_PAGE_SIZE
                + len(self.large_pages) * addr.LARGE_PAGE_SIZE)


class FreedFrames(NamedTuple):
    """What one :meth:`Host.destroy_vm` returned to the allocator."""

    small: int
    large: int

    @property
    def bytes(self) -> int:
        return (self.small * addr.SMALL_PAGE_SIZE
                + self.large * addr.LARGE_PAGE_SIZE)


class Host:
    """Top level: host physical memory plus the virtual machines on it."""

    def __init__(self, memory_bytes: int = 64 * addr.GiB) -> None:
        self.memory = PhysicalMemory(base=0, size_bytes=memory_bytes)
        self.vms: Dict[int, VirtualMachine] = {}

    def create_vm(self, vm_id: int, thp: ThpPolicy) -> VirtualMachine:
        if vm_id in self.vms:
            raise ValueError(f"vm {vm_id} already exists")
        vm = VirtualMachine(vm_id, self.memory, thp)
        self.vms[vm_id] = vm
        return vm

    def destroy_vm(self, vm_id: int) -> FreedFrames:
        """Tear one VM down, returning every host frame it pinned.

        Releases the guests' data pages, the frames backing guest page
        tables, and the host (EPT) table frames to the free lists, so a
        subsequent boot reuses them instead of exhausting the region.
        This is the functional half of teardown only — callers that
        simulate hardware must invalidate the VM's cached translations
        first (:meth:`repro.core.system.Machine.destroy_vm` does both).
        """
        vm = self.vms.pop(vm_id, None)
        if vm is None:
            raise KeyError(f"vm {vm_id} does not exist")
        frames = vm.host_frames()
        # The two sizes have separate free lists, so freeing each size
        # in host_frames order keeps LIFO reuse (and every later frame
        # address) unchanged.
        small = [frame for frame, is_large in frames if not is_large]
        large = [frame for frame, is_large in frames if is_large]
        self.memory.free_frames(small)
        self.memory.free_frames(large, large=True)
        return FreedFrames(small=len(small), large=len(large))
