"""x86-64-style 4-level radix page table.

One :class:`RadixPageTable` maps an input address space onto an output
address space — used twice in virtualized mode:

* the **guest** table maps gVA -> gPA, its table frames allocated from
  guest-physical memory, and
* the **host** table maps gPA -> hPA, its table frames allocated from
  host-physical memory.

Tables are modelled at entry granularity so the walkers can issue the
*exact* memory references of a hardware walk: every level touched yields
one PTE address (``table base + 8 * index``) that goes through the data
caches and DRAM.

Levels follow the paper's Figure 1 numbering: level 4 = PML4 (root),
3 = PDPT, 2 = PD, 1 = PT.  A 2 MiB mapping terminates at level 2.

Storage is flat rather than a tree of nodes.  ``_tables[level]`` maps the
VA prefix a level-``level`` table covers (``va >> TABLE_SHIFT[level]``)
to that table's base address, and two leaf dicts hold the mappings by
small and large VPN.  Tables are created top-down and never deleted, so
a table exists only if every table above it does: any one table or leaf
is found with a single dict probe, and a walk that starts at a
PSC-supplied base checks that base with one lookup.  The walkers read
the storage directly, through the per-level plans in
:attr:`RadixPageTable.descents`.  The table's rules — outcomes, table
frame allocation and teardown order, every PTE address a walk reads —
are held to a dict-of-mappings model by
``tests/property/test_page_table_differential.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..common import addr
from ..common.errors import AddressError

PTE_BYTES = 8

#: Addresses are truncated to the modelled 48-bit space, as the 9-bit
#: per-level index extraction of a hardware walk does; table keys are
#: prefixes of the truncated address.
VA_MASK = (1 << addr.VA_BITS) - 1
_ROOT_LEVEL = addr.RADIX_LEVELS
_SHIFT_SMALL = addr.SMALL_PAGE_SHIFT
_SHIFT_LARGE = addr.LARGE_PAGE_SHIFT
#: Offset masks of a small / large page.
SMALL_OFFSET = addr.SMALL_PAGE_SIZE - 1
LARGE_OFFSET = addr.LARGE_PAGE_SIZE - 1
#: ``tuple.__new__``: builds a NamedTuple with no Python frame (the
#: generated ``__new__`` is a Python function); map_page runs on every
#: first touch.
_new = tuple.__new__

#: VA prefix shift of the table at each level (index 0 unused): the
#: level-``L`` table covering ``va`` is ``_tables[L][va >> TABLE_SHIFT[L]]``.
#: Levels 1..3 match the PDE/PDP/PML4 cache prefixes of the PSCs.
TABLE_SHIFT = tuple(
    None if level == 0
    else addr.SMALL_PAGE_SHIFT + addr.RADIX_LEVEL_BITS * level
    for level in range(addr.RADIX_LEVELS + 1))
#: ``(va >> PTE_SHIFT[L]) & PTE_MASK`` is ``PTE_BYTES * index`` at level L.
PTE_SHIFT = tuple(None if shift is None else shift - addr.RADIX_LEVEL_BITS - 3
                  for shift in TABLE_SHIFT)
PTE_MASK = (addr.ENTRIES_PER_TABLE - 1) * PTE_BYTES

#: ``_DESCENT[large]``: ``(level, TABLE_SHIFT[level])`` of every table
#: :meth:`RadixPageTable.map_page` must find or create, root side first.
_DESCENT = tuple(tuple((level, TABLE_SHIFT[level]) for level in levels)
                 for levels in ((3, 2, 1), (3, 2)))
#: Prefix shift of the level-2 (PD) table, the deepest a large page has.
_SHIFT_PD = TABLE_SHIFT[2]

#: signature of a frame allocator: returns the base address of a fresh
#: 4 KiB frame in the table's output address space.
FrameAllocator = Callable[[], int]


class LeafMapping(NamedTuple):
    """One mapping: the mapped frame and its size."""

    frame: int  # frame base address in the output address space
    large: bool


class RadixPageTable:
    """A 4-level radix table with explicit table frame addresses."""

    def __init__(self, frame_allocator: FrameAllocator, name: str = "pt") -> None:
        self.name = name
        self._alloc = frame_allocator
        #: level -> {VA prefix: table base}; index 0 unused.  The
        #: walkers read PSC-refill bases straight from it.
        self._tables: Tuple[Optional[Dict[int, int]], ...] = (
            None, {}, {}, {}, {0: self._alloc()})
        #: leaves by small VPN (level 1) and by large VPN (level 2).
        self._small: Dict[int, LeafMapping] = {}
        self._large: Dict[int, LeafMapping] = {}
        #: ``descents[L][large]``: ``(level table, TABLE_SHIFT, PTE_SHIFT)``
        #: of every level a walk from level ``L`` reads, ``L`` first, down
        #: to the small (level 1) or large (level 2) leaf; empty when
        #: ``L`` is below the leaf.  Step ``i`` reads the PTE at
        #: ``table[va >> TABLE_SHIFT] + ((va >> PTE_SHIFT) & PTE_MASK)``.
        #: The level tables are never rebound, so this holds for good.
        self.descents = tuple(
            tuple(tuple((self._tables[level], TABLE_SHIFT[level],
                         PTE_SHIFT[level])
                        for level in range(start, 1 if large else 0, -1))
                  for large in (False, True))
            for start in range(_ROOT_LEVEL + 1))

    # -- construction --------------------------------------------------------

    def map_page(self, vaddr: int, frame: int, large: bool = False,
                 writable: bool = True) -> None:
        """Install a mapping for the page containing ``vaddr``.

        ``frame`` must be aligned to the page size.  Re-mapping an already
        mapped page replaces the leaf (the OS changing a mapping).
        """
        if frame & (LARGE_OFFSET if large else SMALL_OFFSET):
            raise AddressError(
                f"frame {frame:#x} not aligned to {'2MiB' if large else '4KiB'}")
        va = vaddr & VA_MASK
        key = va >> _SHIFT_LARGE
        tables = self._tables
        # Tables are created top-down and never deleted, so when the
        # deepest covering table exists every table above it does too:
        # one probe, and a descent only on a missing table.
        if large:
            if key in tables[1]:
                raise AddressError(f"{self.name}: VA {vaddr:#x} already "
                                   f"covered by small pages")
            if va >> _SHIFT_PD not in tables[2]:
                self._descend(va, True)
            self._large[key] = _new(LeafMapping, (frame, True))
        else:
            if key in self._large:
                raise AddressError(f"{self.name}: VA {vaddr:#x} already "
                                   f"covered by a large page")
            if key not in tables[1]:
                self._descend(va, False)
            self._small[va >> _SHIFT_SMALL] = _new(LeafMapping, (frame, False))

    def _descend(self, va: int, large: bool) -> None:
        """Allocate the missing tables covering ``va``, top-down, as a
        hardware-style descent would; allocation order fixes every frame
        address."""
        tables = self._tables
        for level, shift in _DESCENT[large]:
            table = tables[level]
            prefix = va >> shift
            if prefix not in table:
                table[prefix] = self._alloc()

    def unmap_page(self, vaddr: int, large: bool = False) -> bool:
        """Remove the leaf for the page containing ``vaddr``."""
        va = vaddr & VA_MASK
        if large:
            return self._large.pop(va >> _SHIFT_LARGE, None) is not None
        return self._small.pop(va >> _SHIFT_SMALL, None) is not None

    # -- functional lookup (no timing) ----------------------------------------

    def lookup(self, vaddr: int) -> Optional[LeafMapping]:
        """The leaf mapping ``vaddr``, or ``None`` when unmapped."""
        va = vaddr & VA_MASK
        leaf = self._large.get(va >> _SHIFT_LARGE)
        if leaf is not None:
            return leaf
        return self._small.get(va >> _SHIFT_SMALL)

    # -- introspection -----------------------------------------------------

    def table_count(self) -> int:
        """Number of table frames allocated (root included)."""
        return sum(len(self._tables[level])
                   for level in range(1, _ROOT_LEVEL + 1))

    def table_frames(self) -> List[int]:
        """Base addresses of every table frame (root included).

        Tables are never deleted or relocated, so this is exactly the
        set of frames the allocator handed out — what a teardown must
        return to the allocator's free list.  The order is a depth-first
        pre-order that visits each table's children newest first (a
        teardown frees frames in this order, and LIFO reuse hands them
        to the next boot in reverse, so the order fixes the addresses a
        recreated VM gets).
        """
        tables = self._tables
        # level -> {parent prefix: [child prefixes, in creation order]}
        children: List[Dict[int, List[int]]] = [{} for _ in tables]
        for level in range(1, _ROOT_LEVEL):
            kids = children[level + 1]
            for key in tables[level]:
                kids.setdefault(key >> addr.RADIX_LEVEL_BITS, []).append(key)
        frames: List[int] = []
        stack = [(_ROOT_LEVEL, 0)]
        while stack:
            level, key = stack.pop()
            frames.append(tables[level][key])
            stack.extend((level - 1, child)
                         for child in children[level].get(key, ()))
        return frames
