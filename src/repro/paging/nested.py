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

This is the hottest non-replay loop of the simulator: every L2 TLB miss
of every scheme ends here in virtualized mode, and a warm-up that
touches every page once misses on each reference.  Its host time
tracks the bytecodes it executes, not its call frames, so
:meth:`NestedWalker.walk` runs the whole grid in one frame: both PSC
probes, both table descents and every host column are inline, and the
PSC refills iterate plans built once per walker.  Its counters and
cycles are pinned, with every other counter, by the golden counter
fixtures in ``tests/golden/``.
"""

from __future__ import annotations

from ..common import addr
from ..common.errors import TranslationFault
from ..common.stats import StatGroup
from ..obs import events
from ..obs.tracer import NULL_TRACER
from .page_table import (LARGE_OFFSET, PTE_MASK, PTE_SHIFT, SMALL_OFFSET,
                         TABLE_SHIFT, VA_MASK, RadixPageTable)
from .walk_cache import PagingStructureCache
from .walker import PteAccess, WalkResult

#: Worst-case reference count of one nested walk (paper Figure 1).
MAX_NESTED_REFS = 24

_ROOT = addr.RADIX_LEVELS
_SHIFT_SMALL = addr.SMALL_PAGE_SHIFT
_SHIFT_LARGE = addr.LARGE_PAGE_SHIFT
_new = tuple.__new__  # NamedTuple construction without a Python frame


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
        #: The walker's PSCs, the one keyed by the walked address first.
        self.pscs = (guest_psc, host_psc)
        self._read_pte = read_pte
        self.stats = stats
        self.trace = tracer
        self._nested_walks = stats.counter("nested_walks")
        self._nested_cycles = stats.counter("nested_cycles")
        self._nested_refs = stats.counter("nested_refs")
        # Plans of the inlined probes, descents and refills; every
        # dict and counter they hold is never rebound.
        self._guest_probe = guest_psc.probe_order()
        self._guest_misses = guest_psc.stats.counter("misses")
        self._guest_latency = guest_psc.config.hit_latency_cycles
        self._guest_descents = guest_table.descents
        self._guest_refill = guest_psc.refill_plans(guest_table._tables)
        self._host = (host_psc.probe_order(),
                      host_psc.stats.counter("misses"),
                      host_psc.config.hit_latency_cycles,
                      host_table._tables, host_table._large,
                      host_table._small, host_table.descents,
                      host_psc.refill_plans(host_table._tables))

    def walk(self, gva: int) -> WalkResult:
        """Translate ``gva`` end to end (gVA -> gPA -> hPA).

        The guest PSC probe and the check of its base come first.  Then
        one host column runs per guest PTE still to read (the column's
        host PTE reads, then the guest PTE read), and a last column
        translates the data page's gPA; the guest PSC refill ends the
        walk.  A stale PSC base is counted, invalidated and re-walked
        from the root; an unmapped address raises
        :class:`TranslationFault` naming the guest or host table.
        """
        tr = self.trace
        tracing = tr.active
        read_pte = self._read_pte
        # The PSC probe, deepest cache first; the combined guest cache
        # maps a gVA prefix to (gPA, hPA) bases.
        cycles = self._guest_latency
        for entries, shift, start, slot in self._guest_probe:
            key = gva >> shift
            cached = entries.get(key)
            if cached is not None:
                if next(reversed(entries)) != key:
                    entries[key] = entries.pop(key)
                break
        else:
            start = _ROOT
            cached = None
            slot = self._guest_misses
        slot.value += 1
        # The cached base and the leaf are checked before any PTE is
        # read.
        table = self.guest_table
        va = gva & VA_MASK
        if cached is not None:
            base = table._tables[start].get(va >> TABLE_SHIFT[start])
            if base != cached[0]:
                if base is None:
                    raise TranslationFault(gva, space=table.name)
                self.stats.inc("guest_psc_stale")
                self.guest_psc.invalidate(gva)
                cached = None
                start = _ROOT
        leaf = table._large.get(va >> _SHIFT_LARGE)
        if leaf is None:
            leaf = table._small.get(va >> _SHIFT_SMALL)
            if leaf is None:
                raise TranslationFault(gva, space=table.name)
        large = leaf[1]
        level = start  # guest level of the next guest PTE
        refs = 0
        if cached is not None:
            # Combined-PSC hit: the guest table's hPA is cached, so its
            # PTE is read with no host column.
            step_cycles = read_pte(
                cached[1] + ((va >> PTE_SHIFT[start]) & PTE_MASK))
            cycles += step_cycles
            refs = 1
            if tracing:
                tr.emit(events.WALK_STEP, cycles=step_cycles, dim="guest",
                        level=start)
            level -= 1
        # The gPA each host column translates: the guest PTEs still to
        # read, then the data page.
        gpas = []
        for tbl, tshift, pshift in self._guest_descents[level][large]:
            gpas.append(tbl[va >> tshift] + ((va >> pshift) & PTE_MASK))
        gpas.append(leaf[0])
        low = 2 if large else 1  # guest leaf level
        (probe, misses, latency, tables, large_leaves, small_leaves,
         descents, refill) = self._host
        for gpa in gpas:
            cycles += latency
            for entries, shift, hstart, slot in probe:
                key = gpa >> shift
                base = entries.get(key)
                if base is not None:
                    if next(reversed(entries)) != key:
                        entries[key] = entries.pop(key)
                    break
            else:
                hstart = _ROOT
                slot = misses
            slot.value += 1
            hva = gpa & VA_MASK
            if hstart != _ROOT:
                found = tables[hstart].get(hva >> TABLE_SHIFT[hstart])
                if found != base:
                    if found is None:
                        raise TranslationFault(gpa,
                                               space=self.host_table.name)
                    self.stats.inc("host_psc_stale")
                    self.host_psc.invalidate(gpa)
                    hstart = _ROOT
            hleaf = large_leaves.get(hva >> _SHIFT_LARGE)
            if hleaf is None:
                hleaf = small_leaves.get(hva >> _SHIFT_SMALL)
                if hleaf is None:
                    raise TranslationFault(gpa, space=self.host_table.name)
            hlarge = hleaf[1]
            steps = descents[hstart][hlarge]
            refs += len(steps)
            step_level = hstart
            for tbl, tshift, pshift in steps:
                step_cycles = read_pte(
                    tbl[hva >> tshift] + ((hva >> pshift) & PTE_MASK))
                cycles += step_cycles
                if tracing:
                    tr.emit(events.WALK_STEP, cycles=step_cycles,
                            dim="host", level=step_level)
                    step_level -= 1
            # The host PSC refill (warm, an upper level is already
            # resident-and-newest: the get + two compares).
            for entries, shift, tbl, cap in refill[hstart][hlarge]:
                pkey = gpa >> shift
                base = tbl[hva >> shift]
                resident = entries.get(pkey)
                if resident is not None:
                    if resident == base and next(reversed(entries)) == pkey:
                        continue
                    del entries[pkey]
                elif len(entries) >= cap:
                    del entries[next(iter(entries))]
                entries[pkey] = base
            hpa = hleaf[0] | (gpa & (LARGE_OFFSET if hlarge else SMALL_OFFSET))
            if level >= low:
                step_cycles = read_pte(hpa)
                cycles += step_cycles
                refs += 1
                if tracing:
                    tr.emit(events.WALK_STEP, cycles=step_cycles,
                            dim="guest", level=level)
                level -= 1
        # Refill the combined cache with (gPA, hPA) guest-table bases.
        # Guest table frames are host-mapped when allocated and that
        # mapping never changes while the VM lives, so a resident entry
        # with the same gPA base already holds the right hPA: the host
        # lookup runs only when an entry is actually (re)written.
        for entries, shift, tbl, cap in self._guest_refill[start][large]:
            pkey = gva >> shift
            gpa_base = tbl[va >> shift]
            resident = entries.get(pkey)
            if (resident is not None and resident[0] == gpa_base
                    and next(reversed(entries)) == pkey):
                continue
            hpa_leaf = self.host_table.lookup(gpa_base)
            if hpa_leaf is None:
                continue
            if resident is not None:
                del entries[pkey]
            elif len(entries) >= cap:
                del entries[next(iter(entries))]
            entries[pkey] = (gpa_base, hpa_leaf[0] | (
                gpa_base & (LARGE_OFFSET if hpa_leaf[1] else SMALL_OFFSET)))
        self._nested_walks.value += 1
        self._nested_cycles.value += cycles
        self._nested_refs.value += refs
        return _new(WalkResult, (cycles, refs, hpa, large))
