"""2-D nested page-table walk (paper Figure 1: up to 24 memory references).

In virtualized mode a guest-virtual address is translated by walking the
guest table (gVA -> gPA), but every guest-table pointer is itself a
guest-physical address that must be translated through the host table
(gPA -> hPA) before the guest PTE can be fetched.  Cold, that is
4 guest levels x (4 host refs + 1 guest ref) + 4 host refs for the final
data gPA = **24 references**.

Acceleration modelled, matching the baseline hardware the paper measures:

* a **host PSC** inside each host-dimension walk,
* a **combined guest PSC** whose entries map a gVA prefix directly to the
  *host-physical* base of the guest table, skipping both the guest upper
  levels and their nested host walks, and
* PTE caching in the data caches (via the ``read_pte`` callback).

This is the hottest non-replay loop of the simulator (every L2 TLB miss
of every scheme ends here in virtualized mode), so the walk bodies
hoist attribute lookups, gate each PTE loop's trace emit on one
hoisted flag and refill the PSCs with one dict probe per level of the
flat page tables; behaviour is bit-identical to the frozen reference
copy in :mod:`repro.core._refimpl.nested`.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from ..common import addr
from ..common.errors import AddressError
from ..common.stats import StatGroup
from ..obs import events
from ..obs.tracer import NULL_TRACER
from .page_table import LARGE_OFFSET, SMALL_OFFSET, VA_MASK, RadixPageTable
from .walk_cache import PagingStructureCache
from .walker import PteAccess

#: Worst-case reference count of one nested walk (paper Figure 1).
MAX_NESTED_REFS = 24

_new = tuple.__new__  # NamedTuple construction without a Python frame


class NestedOutcome(NamedTuple):
    """Result of a nested walk: the end-to-end gVA -> hPA mapping."""

    cycles: int
    memory_refs: int
    host_frame: int   # host-physical frame of the guest page
    large: bool       # effective page size (guest size, host backs it)

    def translate(self, gva: int) -> int:
        return self.host_frame | addr.page_offset(gva, self.large)


class NestedWalker:
    """Walks guest and host tables, issuing every nested memory reference."""

    def __init__(self, guest_table: RadixPageTable, host_table: RadixPageTable,
                 guest_psc: PagingStructureCache, host_psc: PagingStructureCache,
                 read_pte: PteAccess, stats: StatGroup,
                 tracer=NULL_TRACER) -> None:
        self.guest_table = guest_table
        self.host_table = host_table
        self.guest_psc = guest_psc
        self.host_psc = host_psc
        self._read_pte = read_pte
        self.stats = stats
        self.trace = tracer
        self._nested_walks = stats.counter("nested_walks")
        self._nested_cycles = stats.counter("nested_cycles")
        self._nested_refs = stats.counter("nested_refs")

    # -- host dimension ----------------------------------------------------------

    def host_translate(self, gpa: int) -> Tuple[int, int, int]:
        """Translate a guest-physical address through the host table.

        Returns ``(hpa, cycles, memory_refs)``.  This is one column of
        the paper's Figure 1 grid.
        """
        host_psc = self.host_psc
        host_table = self.host_table
        start_level, table_base, cycles = host_psc.lookup(gpa)
        try:
            if table_base is None:
                ptes, leaf = host_table.walk(gpa)
            else:
                ptes, leaf = host_table.walk_from(gpa, start_level,
                                                  table_base)
        except AddressError:
            self.stats.inc("host_psc_stale")
            host_psc.invalidate(gpa)
            start_level = addr.RADIX_LEVELS
            ptes, leaf = host_table.walk(gpa)
        tr = self.trace
        tracing = tr.active
        read_pte = self._read_pte
        level = start_level
        for pte in ptes:
            step_cycles = read_pte(pte)
            cycles += step_cycles
            if tracing:
                tr.emit(events.WALK_STEP, cycles=step_cycles, dim="host",
                        level=level)
                level -= 1
        # _PrefixCache.fill inlined per level (~3 refills per host walk;
        # warm, the upper levels are already resident-and-newest and the
        # whole body is the get + two compares of the first branch).
        tables = host_table._tables
        va = gpa & VA_MASK
        by_level = host_psc.by_level
        for level in range(2 if leaf.large else 1, addr.RADIX_LEVELS):
            pc = by_level[level]
            cap = pc.capacity
            if not cap:
                continue
            entries = pc._entries
            shift = pc.shift
            pkey = gpa >> shift
            base = tables[level][va >> shift]
            resident = entries.get(pkey)
            if resident is not None:
                if resident == base and next(reversed(entries)) == pkey:
                    continue
                del entries[pkey]
            elif len(entries) >= cap:
                del entries[next(iter(entries))]
            entries[pkey] = base
        # leaf.translate(gpa) inlined
        return (leaf[0] | (gpa & (LARGE_OFFSET if leaf[1] else SMALL_OFFSET)),
                cycles, len(ptes))

    # -- full 2-D walk ------------------------------------------------------

    def walk(self, gva: int) -> NestedOutcome:
        """Translate ``gva`` end to end (gVA -> gPA -> hPA)."""
        guest_psc = self.guest_psc
        guest_table = self.guest_table
        start_level, cached, cycles = guest_psc.lookup(gva)
        try:
            if cached is None:
                ptes, leaf = guest_table.walk(gva)
            else:
                ptes, leaf = guest_table.walk_from(gva, start_level,
                                                   cached[0])
        except AddressError:
            self.stats.inc("guest_psc_stale")
            guest_psc.invalidate(gva)
            cached = None
            start_level = addr.RADIX_LEVELS
            ptes, leaf = guest_table.walk(gva)
        tr = self.trace
        tracing = tr.active
        read_pte = self._read_pte
        host_translate = self.host_translate
        total_refs = 0
        first = 0
        if cached is not None:
            # Combined-PSC hit: the host address of this guest table is
            # cached, no nested host walk for it.
            gpa_base, hpa_base = cached
            step_cycles = read_pte(hpa_base + (ptes[0] - gpa_base))
            cycles += step_cycles
            total_refs += 1
            if tracing:
                tr.emit(events.WALK_STEP, cycles=step_cycles, dim="guest",
                        level=start_level)
            first = 1
        for step in range(first, len(ptes)):
            pte = ptes[step]
            pte_hpa, host_cycles, host_refs = host_translate(pte)
            cycles += host_cycles
            total_refs += host_refs
            step_cycles = read_pte(pte_hpa)
            cycles += step_cycles
            total_refs += 1
            if tracing:
                tr.emit(events.WALK_STEP, cycles=step_cycles, dim="guest",
                        level=start_level - step)
        # Final column: translate the data page's gPA through the host.
        host_frame_addr, host_cycles, host_refs = host_translate(leaf.frame)
        cycles += host_cycles
        total_refs += host_refs
        # Refill the combined cache with (gPA, hPA) guest-table bases.
        # Guest table frames are host-mapped when allocated and that
        # mapping never changes while the VM lives, so a resident entry
        # with the same gPA base already holds the right hPA: the host
        # lookup runs only when an entry is actually (re)written.
        # _PrefixCache.fill inlined (cf. host_translate).
        tables = guest_table._tables
        host_lookup = self.host_table.lookup
        va = gva & VA_MASK
        by_level = guest_psc.by_level
        for level in range(2 if leaf.large else 1, addr.RADIX_LEVELS):
            pc = by_level[level]
            cap = pc.capacity
            if not cap:
                continue
            entries = pc._entries
            shift = pc.shift
            pkey = gva >> shift
            gpa_base = tables[level][va >> shift]
            resident = entries.get(pkey)
            if (resident is not None and resident[0] == gpa_base
                    and next(reversed(entries)) == pkey):
                continue
            hpa_leaf = host_lookup(gpa_base)
            if hpa_leaf is None:
                continue
            if resident is not None:
                del entries[pkey]
            elif len(entries) >= cap:
                del entries[next(iter(entries))]
            # hpa_leaf.translate(gpa_base) inlined
            entries[pkey] = (gpa_base, hpa_leaf[0] | (
                gpa_base & (LARGE_OFFSET if hpa_leaf[1] else SMALL_OFFSET)))
        slot = self._nested_walks
        slot.value += 1
        slot.touched = True
        slot = self._nested_cycles
        slot.value += cycles
        slot.touched = True
        slot = self._nested_refs
        slot.value += total_refs
        slot.touched = True
        return _new(NestedOutcome,
                    (cycles, total_refs, host_frame_addr, leaf[1]))
