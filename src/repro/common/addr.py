"""Address arithmetic and page geometry helpers.

The whole simulator speaks 48-bit x86-64 virtual addresses and physical
addresses of configurable width.  Two page sizes are modelled, matching
the paper's system (Transparent Huge Pages on/off per region):

* small pages: 4 KiB  (12 offset bits)
* large pages: 2 MiB  (21 offset bits)

All helpers are pure functions on integers so they are cheap enough for
the simulator hot path and trivially property-testable.
"""

from __future__ import annotations

from .errors import AddressError

# --- fundamental geometry ------------------------------------------------

VA_BITS = 48
PA_BITS = 46

SMALL_PAGE_SHIFT = 12
LARGE_PAGE_SHIFT = 21

SMALL_PAGE_SIZE = 1 << SMALL_PAGE_SHIFT  # 4 KiB
LARGE_PAGE_SIZE = 1 << LARGE_PAGE_SHIFT  # 2 MiB

#: Number of 4 KiB frames covered by one 2 MiB page.
SMALL_PAGES_PER_LARGE = LARGE_PAGE_SIZE // SMALL_PAGE_SIZE  # 512

CACHE_LINE_SHIFT = 6
CACHE_LINE_SIZE = 1 << CACHE_LINE_SHIFT  # 64 B

#: Bits of VA indexing one radix page-table level (x86-64: 9 bits/level).
RADIX_LEVEL_BITS = 9
RADIX_LEVELS = 4
ENTRIES_PER_TABLE = 1 << RADIX_LEVEL_BITS  # 512

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


def page_shift(large: bool) -> int:
    """Return the page-offset width for a small or large page."""
    return LARGE_PAGE_SHIFT if large else SMALL_PAGE_SHIFT


def page_size(large: bool) -> int:
    """Return the page size in bytes for a small or large page."""
    return LARGE_PAGE_SIZE if large else SMALL_PAGE_SIZE


def vpn(vaddr: int, large: bool = False) -> int:
    """Virtual page number of ``vaddr`` under the given page size."""
    return vaddr >> page_shift(large)


def page_offset(vaddr: int, large: bool = False) -> int:
    """Offset of ``vaddr`` inside its (small or large) page."""
    return vaddr & (page_size(large) - 1)


def page_base(vaddr: int, large: bool = False) -> int:
    """Base address of the page containing ``vaddr``."""
    return vaddr & ~(page_size(large) - 1)


def cache_line_base(addr: int) -> int:
    """Byte address of the start of the cache line containing ``addr``."""
    return addr & ~(CACHE_LINE_SIZE - 1)


def canonical(vaddr: int) -> int:
    """Truncate an arbitrary integer into the modelled 48-bit VA space."""
    return vaddr & ((1 << VA_BITS) - 1)


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Integer log2 of an exact power of two; raises otherwise."""
    if not is_power_of_two(value):
        raise AddressError(f"{value} is not a power of two")
    return value.bit_length() - 1


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of the power-of-two ``alignment``."""
    if not is_power_of_two(alignment):
        raise AddressError(f"alignment {alignment} is not a power of two")
    return (value + alignment - 1) & ~(alignment - 1)


def pretty_size(nbytes: int) -> str:
    """Human-readable size string (``16777216`` -> ``'16MiB'``)."""
    for unit, suffix in ((GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if nbytes >= unit and nbytes % unit == 0:
            return f"{nbytes // unit}{suffix}"
    return f"{nbytes}B"
