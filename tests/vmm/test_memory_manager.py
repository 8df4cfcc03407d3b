"""Unit tests for physical frame allocation."""

import pytest

from repro.common import addr
from repro.common.errors import AddressError
from repro.vmm.memory_manager import PhysicalMemory


class TestAllocation:
    def test_small_frames_are_sequential_and_aligned(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        frames = [mem.alloc_frame() for _ in range(4)]
        assert frames == [0, 4096, 8192, 12288]

    def test_large_frames_are_2mib_aligned(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        frame = mem.alloc_frame(large=True)
        assert frame % addr.LARGE_PAGE_SIZE == 0

    def test_small_and_large_regions_disjoint(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        smalls = {mem.alloc_frame() for _ in range(100)}
        larges = set()
        for _ in range(10):
            base = mem.alloc_frame(large=True)
            larges.update(range(base, base + addr.LARGE_PAGE_SIZE, 4096))
        assert smalls.isdisjoint(larges)

    def test_alloc_small_wrapper(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        assert mem.alloc_small() == 0

    def test_counters(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        mem.alloc_frame()
        mem.alloc_frame(large=True)
        assert mem.small_allocated == 1
        assert mem.large_allocated == 1
        assert mem.bytes_allocated == addr.SMALL_PAGE_SIZE + addr.LARGE_PAGE_SIZE


class TestExhaustion:
    def test_small_region_exhausts(self):
        mem = PhysicalMemory(base=0, size_bytes=4 * addr.MiB,
                             large_region_fraction=0.5)
        for _ in range(512):  # 2MiB of small frames
            mem.alloc_frame()
        with pytest.raises(AddressError):
            mem.alloc_frame()

    def test_large_region_exhausts(self):
        mem = PhysicalMemory(base=0, size_bytes=4 * addr.MiB,
                             large_region_fraction=0.5)
        mem.alloc_frame(large=True)
        with pytest.raises(AddressError):
            mem.alloc_frame(large=True)


class TestReclamation:
    def test_freed_frame_reused_before_fresh(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        first = mem.alloc_frame()
        second = mem.alloc_frame()
        mem.free_frame(first)
        assert mem.alloc_frame() == first          # reuse, not bump
        assert mem.alloc_frame() == second + addr.SMALL_PAGE_SIZE

    def test_lifo_reuse_order(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        frames = [mem.alloc_frame() for _ in range(3)]
        for frame in frames:
            mem.free_frame(frame)
        assert [mem.alloc_frame() for _ in range(3)] == frames[::-1]

    def test_large_frames_reclaimed_too(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        frame = mem.alloc_frame(large=True)
        mem.free_frame(frame, large=True)
        assert mem.large_allocated == 0
        assert mem.alloc_frame(large=True) == frame

    def test_counters_track_live_not_cumulative(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        frame = mem.alloc_frame()
        assert mem.bytes_allocated == addr.SMALL_PAGE_SIZE
        mem.free_frame(frame)
        assert mem.small_allocated == 0
        assert mem.bytes_allocated == 0

    def test_peak_is_high_water_mark(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        frames = [mem.alloc_frame() for _ in range(3)]
        for frame in frames:
            mem.free_frame(frame)
        assert mem.bytes_allocated == 0
        assert mem.peak_bytes == 3 * addr.SMALL_PAGE_SIZE

    def test_double_free_rejected(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        frame = mem.alloc_frame()
        mem.free_frame(frame)
        with pytest.raises(AddressError, match="double free"):
            mem.free_frame(frame)

    def test_free_of_never_allocated_frame_rejected(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        mem.alloc_frame()
        with pytest.raises(AddressError, match="never allocated"):
            mem.free_frame(0x10000)  # beyond the bump pointer

    def test_free_of_misaligned_frame_rejected(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        mem.alloc_frame()
        with pytest.raises(AddressError, match="misaligned"):
            mem.free_frame(0x123)

    def test_free_small_frame_as_large_rejected(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        frame = mem.alloc_frame()
        mem.alloc_frame(large=True)
        # A 4KiB frame lies below the large region; freeing it as 2MiB
        # must be refused (frame 0 is 2MiB-aligned, so this exercises
        # the region check, not the alignment check).
        with pytest.raises(AddressError):
            mem.free_frame(frame, large=True)

    def test_audit_counters_conserve(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        frames = [mem.alloc_frame() for _ in range(4)]
        big = mem.alloc_frame(large=True)
        mem.free_frame(frames[1])
        mem.free_frame(big, large=True)
        counters = mem.audit()
        assert counters["small_live"] == 3
        assert counters["small_free"] == 1
        assert counters["large_live"] == 0
        assert counters["large_free"] == 1
        assert counters["bytes_allocated"] == 3 * addr.SMALL_PAGE_SIZE

    def test_live_byte_counter_matches_recount_under_churn(self):
        # The running counter must equal the books at every step, and the
        # peak must be what recounting bytes_allocated after every
        # allocation (the old definition) gives.
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        live = []
        recounted_peak = 0
        for step in range(400):
            large = step % 7 == 3
            if live and step % 3 == 2:
                frame, was_large = live.pop(step % len(live))
                mem.free_frame(frame, large=was_large)
            else:
                live.append((mem.alloc_frame(large=large), large))
                recounted_peak = max(recounted_peak, mem.bytes_allocated)
            assert mem._live_bytes == mem.bytes_allocated
            assert mem.audit()["bytes_allocated"] == mem._live_bytes
        while live:
            frame, was_large = live.pop()
            mem.free_frame(frame, large=was_large)
        assert mem._live_bytes == mem.bytes_allocated == 0
        assert mem.peak_bytes == recounted_peak > 0

    def test_audit_catches_drifted_live_byte_counter(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        mem.alloc_frame()
        mem._live_bytes += addr.SMALL_PAGE_SIZE  # planted drift
        with pytest.raises(AddressError, match="live-byte count"):
            mem.audit()

    def test_audit_catches_corrupt_free_list(self):
        mem = PhysicalMemory(base=0, size_bytes=addr.GiB)
        mem.alloc_frame()
        mem._free_small.append(0x999000)  # out of range, planted
        mem._free_small_set.add(0x999000)
        with pytest.raises(AddressError):
            mem.audit()


class TestValidation:
    def test_misaligned_base_rejected(self):
        with pytest.raises(AddressError):
            PhysicalMemory(base=4096, size_bytes=addr.GiB)

    def test_bad_fraction_rejected(self):
        with pytest.raises(AddressError):
            PhysicalMemory(base=0, size_bytes=addr.GiB, large_region_fraction=0.0)

    def test_nonzero_base(self):
        mem = PhysicalMemory(base=addr.GiB, size_bytes=addr.GiB)
        assert mem.alloc_frame() == addr.GiB
