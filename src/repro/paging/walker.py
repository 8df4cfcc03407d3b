"""Native (1-D) hardware page-table walker.

Used directly in bare-metal mode and as the host-dimension helper of the
nested walker.  Every PTE reference goes through the caller-supplied
``read_pte`` callback (the data-cache hierarchy), so walk cost reflects
PTE caching exactly as in the baseline the paper measures against.

The walk loop hoists its attribute lookups, splits the traced and
untraced PTE loops, reads the PSC-refill bases straight from the flat
table and bumps its counters through resolved slots; behaviour is
bit-identical to the frozen reference copy in
:mod:`repro.core._refimpl.walker`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..common import addr
from ..common.errors import AddressError
from ..common.stats import StatGroup
from ..obs import events
from ..obs.tracer import NULL_TRACER
from .page_table import TABLE_SHIFT, VA_MASK, LeafMapping, RadixPageTable
from .walk_cache import PagingStructureCache

#: PTE access callback: physical address -> CPU cycles.
PteAccess = Callable[[int], int]


class WalkOutcome(NamedTuple):
    """Timing and result of one table walk."""

    cycles: int
    memory_refs: int
    leaf: LeafMapping

    def translate(self, vaddr: int) -> int:
        return self.leaf.translate(vaddr)


class NativeWalker:
    """Walks one radix table, accelerated by a paging-structure cache."""

    def __init__(self, page_table: RadixPageTable, psc: PagingStructureCache,
                 read_pte: PteAccess, stats: StatGroup,
                 tracer=NULL_TRACER) -> None:
        self.page_table = page_table
        self.psc = psc
        self._read_pte = read_pte
        self.stats = stats
        self.trace = tracer
        self._walks = stats.counter("walks")
        self._walk_cycles = stats.counter("walk_cycles")
        self._walk_refs = stats.counter("walk_refs")

    def walk(self, vaddr: int) -> WalkOutcome:
        """Translate ``vaddr``; cycles include PSC lookup and PTE accesses."""
        psc = self.psc
        page_table = self.page_table
        start_level, table_base, cycles = psc.lookup(vaddr)
        try:
            if table_base is None:
                ptes, leaf = page_table.walk(vaddr)
            else:
                ptes, leaf = page_table.walk_from(vaddr, start_level,
                                                  table_base)
        except AddressError:
            # Stale PSC entry (mapping changed under it): retry from root.
            self.stats.inc("psc_stale")
            psc.invalidate(vaddr)
            start_level = addr.RADIX_LEVELS
            ptes, leaf = page_table.walk(vaddr)
        tr = self.trace
        read_pte = self._read_pte
        refs = len(ptes)
        if tr.active:
            for step, pte in enumerate(ptes):
                step_cycles = read_pte(pte)
                cycles += step_cycles
                tr.emit(events.WALK_STEP, cycles=step_cycles, dim="native",
                        level=start_level - step)
        else:
            for pte in ptes:
                cycles += read_pte(pte)
        tables = page_table._tables
        va = vaddr & VA_MASK
        for level in range(2 if leaf.large else 1, addr.RADIX_LEVELS):
            psc.fill(vaddr, level, tables[level][va >> TABLE_SHIFT[level]])
        slot = self._walks
        slot.value += 1
        slot.touched = True
        slot = self._walk_cycles
        slot.value += cycles
        slot.touched = True
        slot = self._walk_refs
        slot.value += refs
        slot.touched = True
        return WalkOutcome(cycles, refs, leaf)
