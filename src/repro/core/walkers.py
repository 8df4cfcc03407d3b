"""Walker pool: per-context page walkers with per-core MMU caches.

The simulator runs one software context per core per run, so paging-
structure caches are instantiated per (core, vm, asid) — equivalent to
per-core PSCs that are never cross-context polluted, which matches the
paper's steady-state measurement methodology.

In virtualized mode walks are 2-D (:class:`~repro.paging.NestedWalker`);
in native mode they are 1-D against the process's single table.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Tuple, Union

from ..cache.hierarchy import CacheHierarchy
from ..common.config import SystemConfig
from ..common.stats import StatRegistry
from ..obs import events
from ..obs.tracer import NULL_TRACER
from ..paging.nested import NestedWalker
from ..paging.walk_cache import PagingStructureCache
from ..paging.walker import NativeWalker, WalkResult
from ..vmm.vm import Host, NativeProcess


#: Resolver from asid to a NativeProcess (native mode only).
NativeResolver = Callable[[int], NativeProcess]


class WalkerPool:
    """Creates and caches walkers; issues walks for the schemes."""

    def __init__(self, config: SystemConfig, stats: StatRegistry,
                 hierarchy: CacheHierarchy, host: Host,
                 native_resolver: NativeResolver = None) -> None:
        self.config = config
        self.stats = stats
        self.hierarchy = hierarchy
        self.host = host
        self.native_resolver = native_resolver
        self.virtualized = config.virtualized
        #: Event tracer; the null object unless Observability attaches one.
        self.trace = NULL_TRACER
        self._walkers: Dict[Tuple[int, int, int],
                            Union[NestedWalker, NativeWalker]] = {}

    def _read_pte(self, core: int):
        # A PTE reference is a data-cache load; partial avoids a Python
        # frame per PTE reference.
        return partial(self.hierarchy.data_access, core)

    def _walker_for(self, core: int, vm_id: int,
                    asid: int) -> Union[NestedWalker, NativeWalker]:
        key = (core, vm_id, asid)
        walker = self._walkers.get(key)
        if walker is not None:
            return walker
        tag = f"core{core}.vm{vm_id}.asid{asid}"
        if self.virtualized:
            vm = self.host.vms[vm_id]
            walker = NestedWalker(
                guest_table=vm.process(asid).guest_table,
                host_table=vm.host_table,
                guest_psc=PagingStructureCache(self.config.walk_cache,
                                               self.stats.group(f"{tag}.gpsc")),
                host_psc=PagingStructureCache(self.config.walk_cache,
                                              self.stats.group(f"{tag}.hpsc")),
                read_pte=self._read_pte(core),
                stats=self.stats.group(f"{tag}.walker"),
                tracer=self.trace,
            )
        else:
            if self.native_resolver is None:
                raise ValueError("native mode needs a native_resolver")
            process = self.native_resolver(asid)
            walker = NativeWalker(
                page_table=process.page_table,
                psc=PagingStructureCache(self.config.walk_cache,
                                         self.stats.group(f"{tag}.psc")),
                read_pte=self._read_pte(core),
                stats=self.stats.group(f"{tag}.walker"),
                tracer=self.trace,
            )
        self._walkers[key] = walker
        return walker

    def walk(self, core: int, vm_id: int, asid: int, vaddr: int) -> WalkResult:
        """Perform one page walk; cycles include every PTE reference."""
        walker = self._walkers.get((core, vm_id, asid))
        if walker is None:
            walker = self._walker_for(core, vm_id, asid)
        result = walker.walk(vaddr)
        trace = self.trace
        if trace.active:
            trace.emit(events.WALK, cycles=result.cycles,
                       refs=result.memory_refs)
        return result

    def invalidate(self, vm_id: int, asid: int, vaddr: int) -> None:
        """Drop PSC entries covering ``vaddr`` in every core's walker."""
        for (core, w_vm, w_asid), walker in self._walkers.items():
            if (w_vm, w_asid) == (vm_id, asid):
                walker.pscs[0].invalidate(vaddr)

    def invalidate_vm(self, vm_id: int) -> None:
        """Flush every paging-structure cache of one VM (VM teardown)."""
        for (core, w_vm, w_asid), walker in self._walkers.items():
            if w_vm == vm_id:
                for psc in walker.pscs:
                    psc.flush()

    def discard_vm(self, vm_id: int) -> None:
        """Drop the walker objects of one VM (after ``destroy_vm``).

        Walkers hold bound references to the VM's guest/host tables;
        once the VM is destroyed those tables are dead, and a recreated
        VM with the same id must get fresh walkers bound to its new
        tables, not stale ones resolving into freed frames.
        """
        for key in [key for key in self._walkers if key[1] == vm_id]:
            del self._walkers[key]
