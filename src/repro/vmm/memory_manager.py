"""Physical frame allocators for host and guest address spaces.

First-touch bump allocation from two disjoint regions (4 KiB frames low,
2 MiB frames high) — the simple policy gives sequentially-touched pages
physical adjacency, which is what a freshly booted Linux with THP does
and what the DRAM row-buffer study expects.

Freed frames go onto per-size LIFO free lists and are reused before the
bump pointer advances (:meth:`PhysicalMemory.free_frame`), so VM
boot/teardown churn holds the live footprint bounded instead of
monotonically exhausting the region.  LIFO reuse keeps the policy
deterministic: a teardown followed by an identical boot replays the
exact same frame addresses.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..common import addr
from ..common.errors import AddressError


class PhysicalMemory:
    """Frame allocator over one contiguous physical region."""

    def __init__(self, base: int = 0, size_bytes: int = 64 * addr.GiB,
                 large_region_fraction: float = 0.5) -> None:
        if base & (addr.LARGE_PAGE_SIZE - 1):
            raise AddressError("physical region base must be 2MiB aligned")
        if not 0.0 < large_region_fraction < 1.0:
            raise AddressError("large_region_fraction must be in (0,1)")
        self.base = base
        self.size_bytes = size_bytes
        split = addr.align_up(base + int(size_bytes * (1 - large_region_fraction)),
                              addr.LARGE_PAGE_SIZE)
        self._small_next = base
        self._small_limit = split
        self._large_next = split
        self._large_limit = base + size_bytes
        # LIFO free lists (most-recently-freed frame is reused first) with
        # mirror sets for O(1) double-free detection.
        self._free_small: List[int] = []
        self._free_large: List[int] = []
        self._free_small_set: Set[int] = set()
        self._free_large_set: Set[int] = set()
        # Running live-byte count, so an allocation need not recount the
        # books; audit() checks it against bytes_allocated.
        self._live_bytes = 0
        self._peak_bytes = 0

    def alloc_frame(self, large: bool = False) -> int:
        """Return the base address of a small or large frame.

        Freed frames are reused (LIFO) before fresh ones are carved off
        the bump pointer.
        """
        if large:
            if self._free_large:
                frame = self._free_large.pop()
                self._free_large_set.discard(frame)
            else:
                frame = self._large_next
                if frame + addr.LARGE_PAGE_SIZE > self._large_limit:
                    raise AddressError("out of 2MiB frames")
                self._large_next = frame + addr.LARGE_PAGE_SIZE
            live = self._live_bytes + addr.LARGE_PAGE_SIZE
        else:
            if self._free_small:
                frame = self._free_small.pop()
                self._free_small_set.discard(frame)
            else:
                frame = self._small_next
                if frame + addr.SMALL_PAGE_SIZE > self._small_limit:
                    raise AddressError("out of 4KiB frames")
                self._small_next = frame + addr.SMALL_PAGE_SIZE
            live = self._live_bytes + addr.SMALL_PAGE_SIZE
        self._live_bytes = live
        if live > self._peak_bytes:
            self._peak_bytes = live
        return frame

    def alloc_small(self) -> int:
        """Convenience wrapper used as a page-table frame allocator."""
        return self.alloc_frame(large=False)

    def free_frame(self, frame: int, large: bool = False) -> None:
        """Return a frame to its free list (VM teardown / unmap).

        Rejects frames that are misaligned, outside the region the size
        class allocates from, never handed out, or already free — each a
        reclaim-accounting bug that would otherwise corrupt the free
        list silently.
        """
        self.free_frames((frame,), large)

    def free_frames(self, frames: Sequence[int], large: bool = False) -> None:
        """:meth:`free_frame` for each of ``frames``, in order.

        One call for a whole teardown; every frame is checked as
        :meth:`free_frame` checks it.
        """
        size = addr.page_size(large)
        label = "2MiB" if large else "4KiB"
        if large:
            region_base, bump_next = self._small_limit, self._large_next
            free_list, free_set = self._free_large, self._free_large_set
        else:
            region_base, bump_next = self.base, self._small_next
            free_list, free_set = self._free_small, self._free_small_set
        offset_mask = size - 1
        for frame in frames:
            if frame & offset_mask:
                raise AddressError(
                    f"free of misaligned {label} frame {frame:#x}")
            if not region_base <= frame < bump_next:
                raise AddressError(f"free of {label} frame {frame:#x} "
                                   "that was never allocated")
            if frame in free_set:
                raise AddressError(f"double free of {label} frame {frame:#x}")
            free_list.append(frame)
            free_set.add(frame)
            self._live_bytes -= size

    # -- accounting ----------------------------------------------------------

    @property
    def small_allocated(self) -> int:
        """Number of 4 KiB frames currently live (allocated, not freed)."""
        return ((self._small_next - self.base) // addr.SMALL_PAGE_SIZE
                - len(self._free_small))

    @property
    def large_allocated(self) -> int:
        """Number of 2 MiB frames currently live (allocated, not freed)."""
        return ((self._large_next - self._small_limit) // addr.LARGE_PAGE_SIZE
                - len(self._free_large))

    @property
    def bytes_allocated(self) -> int:
        """Live bytes: handed-out frames minus freed ones."""
        return (self.small_allocated * addr.SMALL_PAGE_SIZE
                + self.large_allocated * addr.LARGE_PAGE_SIZE)

    @property
    def peak_bytes(self) -> int:
        """High-water mark of :attr:`bytes_allocated`."""
        return self._peak_bytes

    def audit(self) -> Dict[str, int]:
        """Check allocation-conservation laws; return the raw counters.

        Raises :class:`~repro.common.errors.AddressError` when the free
        lists disagree with the bump pointers — duplicate entries,
        misaligned or out-of-range frames, or more frames free than were
        ever handed out — or when the running live-byte count disagrees
        with the books.  Used by the ``memory-conservation`` verify
        invariant after every ``destroy_vm``.
        """
        for label, large, free_list, free_set, region_base, bump_next in (
                ("4KiB", False, self._free_small, self._free_small_set,
                 self.base, self._small_next),
                ("2MiB", True, self._free_large, self._free_large_set,
                 self._small_limit, self._large_next)):
            if len(free_list) != len(free_set):
                raise AddressError(f"{label} free list holds duplicates")
            size = addr.page_size(large)
            handed_out = (bump_next - region_base) // size
            if len(free_list) > handed_out:
                raise AddressError(
                    f"{label} free list holds {len(free_list)} frames but "
                    f"only {handed_out} were ever allocated")
            for frame in free_list:
                if frame & (size - 1) or not region_base <= frame < bump_next:
                    raise AddressError(
                        f"{label} free list holds bad frame {frame:#x}")
        if self._live_bytes != self.bytes_allocated:
            raise AddressError(
                f"live-byte count {self._live_bytes} disagrees with the "
                f"{self.bytes_allocated} bytes the free lists imply")
        return {
            "small_live": self.small_allocated,
            "large_live": self.large_allocated,
            "small_free": len(self._free_small),
            "large_free": len(self._free_large),
            "bytes_allocated": self.bytes_allocated,
            "peak_bytes": self._peak_bytes,
        }
