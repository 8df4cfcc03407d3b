"""Pluggable invariant checkers for the consistency audit.

Each checker asserts one structural or accounting law the simulator must
uphold regardless of scheme or workload:

* :class:`InclusionChecker` — mostly-inclusive TLB consistency: after an
  explicit invalidation (shootdown / VM teardown) no private SRAM TLB or
  backing structure still holds the dropped translation.  Checked
  event-driven, **not** steady-state: capacity evictions legitimately
  leave private copies behind ("mostly" inclusive, paper Section 2.1).
* :class:`StaleLineChecker` — no data cache serves a memory-mapped
  backing line (POM-TLB set, TSB entry) after the invalidation dropped
  its content; at the end of a run every cached TLB-kind line lies
  inside the scheme's mapped range (or none exist for SRAM-only
  schemes).
* :class:`SetAddressChecker` — every resident POM-TLB entry sits in the
  set paper Eq. 1 maps it to; guards the inlined index arithmetic in
  :mod:`repro.core.pom_tlb` / :mod:`repro.core.mmu` against the ground
  truth of :class:`repro.core.addressing.PomTlbAddressing` (and the
  per-way hashes of the skewed variant).
* :class:`LruChecker` — every dict-ordered set respects its capacity:
  no SRAM TLB set, POM-TLB set or cache set exceeds its way count.
* :class:`ConservationChecker` — stat conservation laws: probes flow
  down the hierarchy without loss (L1 probes == references, next-level
  probes == L1 misses) and the MMU's miss/penalty counters equal the
  verifier's independent per-translation accumulation.
* :class:`MemoryConservationChecker` — allocation conservation: every
  live host-physical byte is owned by exactly one VM or native process,
  the allocator's free lists balance against its bump pointers, and a
  destroyed VM's frames actually came back (teardown storms must not
  leak host memory).

A violated invariant raises
:class:`~repro.common.errors.VerificationError` naming the checker.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..common import addr
from ..common.errors import AddressError, VerificationError
from ..core.pom_tlb import PomStructure
from ..tlb.entry import pack_key

#: Line kinds for :class:`StaleLineChecker` tokens.
_TLB_LINE = "tlb"
_DATA_LINE = "data"


class InvariantChecker:
    """Base checker: every hook is a no-op; subclasses override some."""

    name = "invariant"

    def fail(self, detail: str) -> None:
        raise VerificationError(self.name, detail)

    # accumulation hooks (hot path — only ConservationChecker uses them)
    def on_translation(self, result) -> None:
        pass

    def reset(self) -> None:
        """Forget accumulated state (warmup boundary)."""

    # event-driven hooks around explicit invalidations
    def token_shootdown(self, machine, vm_id: int, asid: int,
                        vaddr: int):
        return None

    def check_shootdown(self, machine, vm_id: int, asid: int, vaddr: int,
                        token) -> None:
        pass

    def token_invalidate_vm(self, machine, vm_id: int):
        return None

    def check_invalidate_vm(self, machine, vm_id: int, token) -> None:
        pass

    def token_destroy_vm(self, machine, vm_id: int):
        return None

    def check_destroy_vm(self, machine, vm_id: int, token) -> None:
        pass

    # end-of-run structural checks
    def check_final(self, machine, result) -> None:
        pass


# -- helpers shared by checkers ----------------------------------------------


def _both_size_keys(vm_id: int, asid: int,
                    vaddr: int) -> List[Tuple[bool, int]]:
    return [(large, pack_key(vm_id, asid,
                             vaddr >> addr.page_shift(large), large))
            for large in (False, True)]


def _pom(scheme):
    """The scheme's POM-TLB structure (either organisation), or None."""
    pom = getattr(scheme, "pom", None)
    return pom if isinstance(pom, PomStructure) else None


def _backend_holds(scheme, vaddr: int, vm_id: int, asid: int,
                   key: int, large: bool) -> bool:
    """Does the scheme's backing structure still hold ``key``?"""
    pom = _pom(scheme)
    if pom is not None:
        return pom.contains(vaddr, key, vm_id, large)
    if scheme.shared is not None:
        return scheme.shared.contains(key)
    if scheme.name == "tsb":
        return scheme.tsb.contains_guest(
            vm_id, asid, vaddr >> addr.page_shift(large), large)
    return False  # baseline has no backing structure


def _backend_vm_keys(scheme, vm_id: int) -> List[int]:
    """Packed keys (or TSB tags) of ``vm_id`` still in the backend."""
    pom = _pom(scheme)
    if pom is not None:
        return [key for *_pos, key in pom.resident()
                if (key >> 1) & 0xFFFF == vm_id]
    if scheme.shared is not None:
        return [k for k in scheme.shared.keys() if k.vm_id == vm_id]
    if scheme.name == "tsb":
        resident = scheme.tsb.resident()
        return ([t for t in resident["guest"] if t[0] == vm_id]
                + [t for t in resident["host"] if t[0] == vm_id])
    return []


class InclusionChecker(InvariantChecker):
    """Explicit invalidations must reach every structure (Section 2.1)."""

    name = "inclusion"

    def check_shootdown(self, machine, vm_id, asid, vaddr, token):
        scheme = machine.scheme
        for large, key in _both_size_keys(vm_id, asid, vaddr):
            size = "large" if large else "small"
            for core, tlbs in enumerate(scheme.cores):
                if tlbs.l1(large).contains(key):
                    self.fail(f"core {core} L1 ({size}) still holds "
                              f"VA {vaddr:#x} after shootdown")
                if tlbs.l2.contains(key):
                    self.fail(f"core {core} L2 still holds the {size} "
                              f"entry of VA {vaddr:#x} after shootdown")
            if _backend_holds(scheme, vaddr, vm_id, asid, key, large):
                self.fail(f"{scheme.name} backend still holds the {size} "
                          f"entry of VA {vaddr:#x} after shootdown")

    def check_invalidate_vm(self, machine, vm_id, token):
        scheme = machine.scheme
        for core, tlbs in enumerate(scheme.cores):
            for label, tlb in (("l1_small", tlbs.l1_small),
                               ("l1_large", tlbs.l1_large),
                               ("l2", tlbs.l2)):
                survivors = [k for k in tlb.keys() if k.vm_id == vm_id]
                if survivors:
                    self.fail(f"core {core} {label} still holds "
                              f"{len(survivors)} entries of torn-down "
                              f"VM {vm_id}")
        leftover = _backend_vm_keys(scheme, vm_id)
        if leftover:
            self.fail(f"{scheme.name} backend still holds {len(leftover)} "
                      f"entries of torn-down VM {vm_id}")


class StaleLineChecker(InvariantChecker):
    """No cache may serve a backing line whose content was dropped."""

    name = "stale-line"

    @staticmethod
    def _key_lines(scheme, vm_id, asid, vaddr) -> List[Tuple[str, int]]:
        """Backing lines currently holding (either size of) ``vaddr``."""
        lines: List[Tuple[str, int]] = []
        pom = _pom(scheme)
        for large, key in _both_size_keys(vm_id, asid, vaddr):
            if pom is not None:
                lines.extend((_TLB_LINE, line) for line
                             in pom.key_lines(vaddr, key, vm_id, large))
            elif scheme.name == "tsb":
                vpn = vaddr >> addr.page_shift(large)
                if scheme.tsb.contains_guest(vm_id, asid, vpn, large):
                    lines.append((_DATA_LINE,
                                  scheme.tsb.guest_entry_address(
                                      vm_id, asid, vpn)))
        return lines

    @staticmethod
    def _vm_lines(scheme, vm_id) -> List[Tuple[str, int]]:
        """Backing lines currently holding any entry of ``vm_id``."""
        pom = _pom(scheme)
        if pom is not None:
            return [(_TLB_LINE, line) for line in pom.vm_lines(vm_id)]
        if scheme.name == "tsb":
            tsb = scheme.tsb
            resident = tsb.resident()
            lines = [(_DATA_LINE, tsb.guest_entry_address(t[0], t[1], t[2]))
                     for t in resident["guest"] if t[0] == vm_id]
            lines.extend((_DATA_LINE, tsb.host_entry_address(t[0], t[1]))
                         for t in resident["host"] if t[0] == vm_id)
            return lines
        return []

    def _check_dropped(self, machine, lines, event: str) -> None:
        hierarchy = machine.hierarchy
        for kind, line in lines:
            caches = (hierarchy.tlb_line_caches() if kind == _TLB_LINE
                      else hierarchy.all_caches())
            for cache in caches:
                if cache.contains(line):
                    self.fail(f"cache still serves backing line "
                              f"{line:#x} after {event}")

    def token_shootdown(self, machine, vm_id, asid, vaddr):
        return self._key_lines(machine.scheme, vm_id, asid, vaddr)

    def check_shootdown(self, machine, vm_id, asid, vaddr, token):
        self._check_dropped(machine, token or [], "shootdown")

    def token_invalidate_vm(self, machine, vm_id):
        return self._vm_lines(machine.scheme, vm_id)

    def check_invalidate_vm(self, machine, vm_id, token):
        self._check_dropped(machine, token or [], "invalidate_vm")

    def check_final(self, machine, result):
        scheme = machine.scheme
        cached = machine.hierarchy.tlb_lines()
        pom = _pom(scheme)
        if pom is not None:
            config = pom.config
            stray = [line for line in cached if not config.contains(line)]
            if stray:
                self.fail(f"{len(stray)} cached TLB-kind lines outside "
                          f"the POM-TLB range (first: {stray[0]:#x})")
        elif cached:
            self.fail(f"{scheme.name} has no memory-mapped TLB structure "
                      f"but {len(cached)} TLB-kind lines are cached")


class SetAddressChecker(InvariantChecker):
    """Every resident POM-TLB entry obeys the Eq. 1 set mapping."""

    name = "set-address"

    def check_final(self, machine, result):
        scheme = machine.scheme
        if scheme.name == "pom":
            pom = scheme.pom
            addressing = pom.addressing
            for large, index, key in pom.resident():
                if bool(key & 1) != large:
                    self.fail(f"key {key:#x} with size bit "
                              f"{key & 1} resides in the "
                              f"{'large' if large else 'small'} partition")
                vm_id = (key >> 1) & 0xFFFF
                vaddr = (key >> 33) << addr.page_shift(large)
                expected = addressing.set_index(vaddr, vm_id, large)
                if index != expected:
                    self.fail(
                        f"key {key:#x} sits in set {index}, Eq. 1 maps "
                        f"it to set {expected} "
                        f"({'large' if large else 'small'} partition)")
                # Guard the arithmetic inlined in pom_tlb.py against the
                # addressing module's ground truth.
                if (pom.set_address(vaddr, vm_id, large)
                        != addressing.set_address(vaddr, vm_id, large)):
                    self.fail(f"inlined set_address diverges from Eq. 1 "
                              f"for VA {vaddr:#x} (vm {vm_id})")
        elif scheme.name == "pom_skewed":
            pom = scheme.pom
            for way, slot, key in pom.resident():
                expected = pom._hash(key, way)
                if slot != expected:
                    self.fail(f"key {key:#x} sits in way {way} slot "
                              f"{slot}, its way hash maps it to {expected}")


class LruChecker(InvariantChecker):
    """No dict-ordered set may exceed its way count."""

    name = "lru-wellformed"

    @staticmethod
    def _sram_tlbs(scheme) -> Iterable[Tuple[str, object]]:
        for core, tlbs in enumerate(scheme.cores):
            yield f"core{core}.l1_small", tlbs.l1_small
            yield f"core{core}.l1_large", tlbs.l1_large
            yield f"core{core}.l2", tlbs.l2
        if scheme.shared is not None:
            yield "shared", scheme.shared

    def check_final(self, machine, result):
        scheme = machine.scheme
        for label, tlb in self._sram_tlbs(scheme):
            for set_idx, entries in enumerate(tlb._sets):
                if len(entries) > tlb._ways:
                    self.fail(f"{label} set {set_idx} holds "
                              f"{len(entries)} entries for "
                              f"{tlb._ways} ways")
        if scheme.name == "pom":
            pom = scheme.pom
            for large, index, occupancy in pom.set_sizes():
                if occupancy > pom._ways:
                    self.fail(
                        f"POM-TLB {'large' if large else 'small'} set "
                        f"{index} holds {occupancy} entries for "
                        f"{pom._ways} ways")
        for cache in machine.hierarchy.all_caches():
            for set_idx, occupancy in cache.set_occupancies():
                if occupancy > cache._ways:
                    self.fail(f"{cache.config.name} set {set_idx} holds "
                              f"{occupancy} lines for {cache._ways} ways")


class ConservationChecker(InvariantChecker):
    """Probe flow and penalty accounting must balance exactly."""

    name = "stat-conservation"

    def __init__(self) -> None:
        self.references = 0
        self.misses = 0
        self.penalty = 0
        self.cycles = 0

    def on_translation(self, result) -> None:
        self.references += 1
        self.misses += result[1]
        self.penalty += result[2]
        self.cycles += result[0]

    def reset(self) -> None:
        self.references = 0
        self.misses = 0
        self.penalty = 0
        self.cycles = 0

    def check_final(self, machine, result):
        scheme = machine.scheme
        mmu = machine.stats.group("mmu")
        if result.references != self.references:
            self.fail(f"run reports {result.references} references, "
                      f"verifier saw {self.references}")
        if result.l2_tlb_misses != self.misses:
            self.fail(f"mmu.l2_tlb_misses={result.l2_tlb_misses} but the "
                      f"per-translation miss flags sum to {self.misses}")
        if result.penalty_cycles != self.penalty:
            self.fail(f"mmu.penalty_cycles={result.penalty_cycles} but "
                      f"per-translation penalties sum to {self.penalty}")
        if int(mmu["penalty_cycles"]) != self.penalty:
            self.fail("mmu stats penalty_cycles diverged from the "
                      "run result")
        if result.translation_cycles != self.cycles:
            self.fail(f"translation_cycles={result.translation_cycles} "
                      f"but per-translation cycles sum to {self.cycles}")
        # Probe flow: every reference probes exactly one L1; each level's
        # probe count equals the previous level's miss count.
        l1_probes = l1_misses = 0
        for tlbs in scheme.cores:
            for tlb in (tlbs.l1_small, tlbs.l1_large):
                l1_probes += int(tlb.stats["hits"]) + int(tlb.stats["misses"])
                l1_misses += int(tlb.stats["misses"])
        if l1_probes != self.references:
            self.fail(f"L1 TLBs saw {l1_probes} probes for "
                      f"{self.references} references "
                      f"(hits+misses != probes)")
        next_probes = next_misses = 0
        for tlbs in scheme.cores:
            group = tlbs.l2.stats
            next_probes += int(group["hits"]) + int(group["misses"])
            next_misses += int(group["misses"])
        if scheme.shared is not None:
            shared_probes = (int(scheme.shared.stats["hits"])
                             + int(scheme.shared.stats["misses"]))
            if shared_probes != l1_misses:
                self.fail(f"shared TLB saw {shared_probes} probes for "
                          f"{l1_misses} L1 misses")
        if next_probes != l1_misses:
            self.fail(f"L2 TLBs saw {next_probes} probes for "
                      f"{l1_misses} L1 misses")
        if next_misses != self.misses:
            self.fail(f"L2 TLBs counted {next_misses} misses, the MMU "
                      f"counted {self.misses}")


class MemoryConservationChecker(InvariantChecker):
    """Every live host-physical byte has exactly one owner."""

    name = "memory-conservation"

    @staticmethod
    def _owned_bytes(machine) -> int:
        """Bytes the surviving VMs and native processes pin together."""
        owned = sum(vm.live_bytes() for vm in machine.host.vms.values())
        owned += sum(proc.live_bytes()
                     for proc in machine._native_processes.values())
        return owned

    def _check_balance(self, machine, event: str) -> None:
        memory = machine.host.memory
        try:
            counters = memory.audit()
        except AddressError as exc:
            self.fail(f"allocator audit failed after {event}: {exc}")
        owned = self._owned_bytes(machine)
        if counters["bytes_allocated"] != owned:
            self.fail(
                f"after {event} the allocator reports "
                f"{counters['bytes_allocated']} live bytes but the VMs "
                f"and native processes own {owned} — "
                f"{'leaked' if counters['bytes_allocated'] > owned else 'double-freed'} "
                f"{abs(counters['bytes_allocated'] - owned)} bytes")

    def token_destroy_vm(self, machine, vm_id):
        return machine.host.memory.bytes_allocated

    def check_destroy_vm(self, machine, vm_id, token) -> None:
        if vm_id in machine.host.vms:
            self.fail(f"vm {vm_id} still registered after destroy_vm")
        before = token or 0
        after = machine.host.memory.bytes_allocated
        if after > before:
            self.fail(f"destroy_vm of vm {vm_id} grew bytes_allocated "
                      f"({before} -> {after})")
        self._check_balance(machine, f"destroy_vm({vm_id})")

    def check_final(self, machine, result) -> None:
        self._check_balance(machine, "the run")


#: The checkers every audit enables unless a subset is requested.
DEFAULT_INVARIANTS = (InclusionChecker, StaleLineChecker, SetAddressChecker,
                      LruChecker, ConservationChecker,
                      MemoryConservationChecker)

#: name -> checker class, for CLI selection.
INVARIANT_REGISTRY = {cls.name: cls for cls in DEFAULT_INVARIANTS}


def default_checkers() -> List[InvariantChecker]:
    return [cls() for cls in DEFAULT_INVARIANTS]
