"""Native (1-D) hardware page-table walker.

Used in bare-metal mode.  Every PTE reference goes through the
caller-supplied ``read_pte`` callback (the data-cache hierarchy), so
walk cost reflects PTE caching exactly as in the baseline the paper
measures against.

A native walk is one host column of :meth:`NestedWalker.walk
<repro.paging.nested.NestedWalker.walk>`, and runs on the same plans:
the PSC probe order, the table's per-level descents and the PSC refill
plans, all built once per walker.  Its PTE addresses, stale-base
handling and PSC refills are held to a model of the radix table by
``tests/property/test_page_table_differential.py``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..common import addr
from ..common.errors import TranslationFault
from ..common.stats import StatGroup
from ..obs import events
from ..obs.tracer import NULL_TRACER
from .page_table import PTE_MASK, TABLE_SHIFT, VA_MASK, RadixPageTable
from .walk_cache import PagingStructureCache

#: PTE access callback: physical address -> CPU cycles.
PteAccess = Callable[[int], int]

_ROOT = addr.RADIX_LEVELS
_SHIFT_SMALL = addr.SMALL_PAGE_SHIFT
_SHIFT_LARGE = addr.LARGE_PAGE_SHIFT
_new = tuple.__new__  # NamedTuple construction without a Python frame


class WalkResult(NamedTuple):
    """Result of a native or nested walk: the end-to-end mapping."""

    cycles: int
    memory_refs: int
    host_frame: int   # frame base in the (host-)physical address space
    large: bool       # effective page size

    def translate(self, vaddr: int) -> int:
        return self.host_frame | addr.page_offset(vaddr, self.large)


class NativeWalker:
    """Walks one radix table, accelerated by a paging-structure cache."""

    def __init__(self, page_table: RadixPageTable, psc: PagingStructureCache,
                 read_pte: PteAccess, stats: StatGroup,
                 tracer=NULL_TRACER) -> None:
        self.page_table = page_table
        self.psc = psc
        #: The walker's PSCs, the one keyed by the walked address first.
        self.pscs = (psc,)
        self._read_pte = read_pte
        self.stats = stats
        self.trace = tracer
        self._walks = stats.counter("walks")
        self._walk_cycles = stats.counter("walk_cycles")
        self._walk_refs = stats.counter("walk_refs")
        # Plans of the probe, descent and refill; every dict and
        # counter they hold is never rebound.
        self._probe = psc.probe_order()
        self._misses = psc.stats.counter("misses")
        self._latency = psc.config.hit_latency_cycles
        self._refill = psc.refill_plans(page_table._tables)

    def walk(self, vaddr: int) -> WalkResult:
        """Translate ``vaddr``; cycles include the PSC probe and every
        PTE read.

        A stale PSC base is counted in ``psc_stale``, invalidated and
        re-walked from the root; an unmapped address raises
        :class:`TranslationFault` naming the table.
        """
        cycles = self._latency
        for entries, shift, start, slot in self._probe:
            key = vaddr >> shift
            base = entries.get(key)
            if base is not None:
                if next(reversed(entries)) != key:
                    entries[key] = entries.pop(key)
                break
        else:
            start = _ROOT
            slot = self._misses
        slot.value += 1
        table = self.page_table
        va = vaddr & VA_MASK
        if start != _ROOT:
            found = table._tables[start].get(va >> TABLE_SHIFT[start])
            if found != base:
                if found is None:
                    raise TranslationFault(vaddr, space=table.name)
                self.stats.inc("psc_stale")
                self.psc.invalidate(vaddr)
                start = _ROOT
        leaf = table._large.get(va >> _SHIFT_LARGE)
        if leaf is None:
            leaf = table._small.get(va >> _SHIFT_SMALL)
            if leaf is None:
                raise TranslationFault(vaddr, space=table.name)
        large = leaf[1]
        steps = table.descents[start][large]
        tr = self.trace
        tracing = tr.active
        read_pte = self._read_pte
        level = start
        for tbl, tshift, pshift in steps:
            step_cycles = read_pte(
                tbl[va >> tshift] + ((va >> pshift) & PTE_MASK))
            cycles += step_cycles
            if tracing:
                tr.emit(events.WALK_STEP, cycles=step_cycles, dim="native",
                        level=level)
                level -= 1
        for entries, shift, tbl, cap in self._refill[start][large]:
            key = vaddr >> shift
            base = tbl[va >> shift]
            resident = entries.get(key)
            if resident is not None:
                if resident == base and next(reversed(entries)) == key:
                    continue
                del entries[key]
            elif len(entries) >= cap:
                del entries[next(iter(entries))]
            entries[key] = base
        refs = len(steps)
        self._walks.value += 1
        self._walk_cycles.value += cycles
        self._walk_refs.value += refs
        return _new(WalkResult, (cycles, refs, leaf[0], large))
