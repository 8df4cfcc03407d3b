"""SPARC-style Translation Storage Buffer baseline (paper Section 3.3).

The TSB is a large **software-managed** translation cache in ordinary
(off-chip) memory.  The paper's comparison points, all modelled here:

* every L2 TLB miss takes an **OS trap** before any lookup can start;
* the structure is **direct-mapped**, so it suffers conflict misses the
  4-way POM-TLB avoids;
* entries are **not direct gVA -> hPA translations**: completing one
  translation takes multiple dependent TSB accesses.  We model the two
  halves explicitly — a guest half (gVA -> gPA) and a host half
  (gPA -> hPA) — each direct-mapped over half the capacity;
* TSB entries live in cacheable memory, so lookups go through the data
  caches like any software load (the MMU charges that path).

On a TSB miss the OS performs the nested software walk and refills both
halves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common import addr
from ..common.config import TsbConfig
from ..common.stats import StatGroup

_SPREAD = 0x9E37


class TranslationStorageBuffer:
    """Functional content + entry addressing of the two TSB halves."""

    #: Batch-replay contract (:mod:`repro.core.batch`): resolving a miss
    #: through this structure never touches another core's L1 TLB or L1
    #: data cache (see :class:`repro.core.pom_tlb.PomTlb`).
    L1_PRIVATE = True

    def __init__(self, config: TsbConfig, stats: StatGroup) -> None:
        self.config = config
        self.stats = stats
        self._half_entries = config.num_entries // 2
        self._mask = self._half_entries - 1
        self._guest_base = config.base_address
        self._host_base = config.base_address + self._half_entries * config.entry_bytes
        # index -> (tag, payload); direct-mapped means one resident per index.
        self._guest: Dict[int, Tuple[Tuple[int, int, int, bool], int]] = {}
        self._host: Dict[int, Tuple[Tuple[int, int], int]] = {}
        # Counter slots resolved once; probes run on every L2 TLB miss.
        self._guest_hits = stats.counter("guest_hits")
        self._guest_misses = stats.counter("guest_misses")
        self._host_hits = stats.counter("host_hits")
        self._host_misses = stats.counter("host_misses")

    # -- guest half: gVA -> gPA -------------------------------------------

    def _guest_index(self, vm_id: int, asid: int, vpn: int) -> int:
        return (vpn ^ (vm_id * _SPREAD) ^ (asid * 0x85EB)) & self._mask

    def guest_entry_address(self, vm_id: int, asid: int, vpn: int) -> int:
        index = self._guest_index(vm_id, asid, vpn)
        return self._guest_base + index * self.config.entry_bytes

    def probe_guest(self, vm_id: int, asid: int, vpn: int,
                    large: bool) -> Optional[int]:
        """Guest-half lookup; returns the gPA frame or None."""
        index = (vpn ^ (vm_id * _SPREAD) ^ (asid * 0x85EB)) & self._mask
        resident = self._guest.get(index)
        if resident and resident[0] == (vm_id, asid, vpn, large):
            self._guest_hits.value += 1
            return resident[1]
        self._guest_misses.value += 1
        return None

    def fill_guest(self, vm_id: int, asid: int, vpn: int, large: bool,
                   gpa_frame: int) -> None:
        index = self._guest_index(vm_id, asid, vpn)
        if index in self._guest:
            self.stats.inc("guest_conflict_evictions")
        self._guest[index] = ((vm_id, asid, vpn, large), gpa_frame)

    # -- host half: gPA -> hPA ------------------------------------------------

    def _host_index(self, vm_id: int, gpa_vpn: int) -> int:
        return (gpa_vpn ^ (vm_id * _SPREAD)) & self._mask

    def host_entry_address(self, vm_id: int, gpa_vpn: int) -> int:
        index = self._host_index(vm_id, gpa_vpn)
        return self._host_base + index * self.config.entry_bytes

    def probe_host(self, vm_id: int, gpa_vpn: int) -> Optional[int]:
        """Host-half lookup; returns the hPA frame or None."""
        index = (gpa_vpn ^ (vm_id * _SPREAD)) & self._mask
        resident = self._host.get(index)
        if resident and resident[0] == (vm_id, gpa_vpn):
            self._host_hits.value += 1
            return resident[1]
        self._host_misses.value += 1
        return None

    def fill_host(self, vm_id: int, gpa_vpn: int, hpa_frame: int) -> None:
        index = self._host_index(vm_id, gpa_vpn)
        if index in self._host:
            self.stats.inc("host_conflict_evictions")
        self._host[index] = ((vm_id, gpa_vpn), hpa_frame)

    # -- shootdown & reporting ------------------------------------------------

    def invalidate_guest(self, vm_id: int, asid: int, vpn: int,
                         large: bool) -> Optional[int]:
        """Drop one guest-half entry; returns its address if present."""
        index = self._guest_index(vm_id, asid, vpn)
        resident = self._guest.get(index)
        if resident and resident[0] == (vm_id, asid, vpn, large):
            del self._guest[index]
            return self._guest_base + index * self.config.entry_bytes
        return None

    def invalidate_vm(self, vm_id: int) -> List[int]:
        """Drop every entry of one VM from both halves (VM teardown).

        Returns the entry addresses dropped so the caller can drop the
        cached copies of those lines — TSB entries live in cacheable
        memory, so the data caches may still serve them otherwise.
        """
        touched: List[int] = []
        entry_bytes = self.config.entry_bytes
        for index in [i for i, (tag, _payload) in self._guest.items()
                      if tag[0] == vm_id]:
            del self._guest[index]
            touched.append(self._guest_base + index * entry_bytes)
        for index in [i for i, (tag, _payload) in self._host.items()
                      if tag[0] == vm_id]:
            del self._host[index]
            touched.append(self._host_base + index * entry_bytes)
        return touched

    def contains_guest(self, vm_id: int, asid: int, vpn: int,
                       large: bool) -> bool:
        """Guest-half presence check with no stats side effects."""
        resident = self._guest.get(self._guest_index(vm_id, asid, vpn))
        return bool(resident) and resident[0] == (vm_id, asid, vpn, large)

    def resident(self) -> Dict[str, List[Tuple]]:
        """Resident tags per half (consistency checks and tests)."""
        return {"guest": [tag for tag, _p in self._guest.values()],
                "host": [tag for tag, _p in self._host.values()]}

    def occupancy(self) -> Dict[str, int]:
        return {"guest": len(self._guest), "host": len(self._host)}

    @staticmethod
    def gpa_vpn(gpa: int) -> int:
        """Host-half tags use 4 KiB granularity of the guest-physical space."""
        return gpa >> addr.SMALL_PAGE_SHIFT
