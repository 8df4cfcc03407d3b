"""VM lifecycle workloads: consolidation churn, migration, shootdown storms.

The paper evaluates one virtualized guest; the POM-TLB's pitch is the
consolidated cloud host, where guests boot and tear down continuously
and TLB shootdowns from *other* tenants interfere with everyone's
translations (ROADMAP item 4).  This module generates those scenarios as
plain workloads plus a schedule of :class:`LifecycleEvent`\\ s that
:meth:`~repro.core.system.Machine.run` fires mid-replay:

* :func:`build_churn` — N heterogeneous guests per generation, each torn
  down (``Machine.destroy_vm``) the moment its trace ends, for G
  generations: an ``invalidate_vm`` storm that also exercises frame
  reclamation (teardown must not grow ``bytes_allocated``).
* :func:`build_migration` — long-lived guests that are cold-migrated
  mid-run: the VM is destroyed while its stream continues, so the next
  touch re-boots it on the same vm_id with reused frames and a cold
  translation set.
* :func:`build_shootdown_storm` — one guest under a periodic shootdown
  storm: every ``interval`` references the most recently touched page is
  shot down, modelling unrelated-tenant unmap/IPI interference at a
  controlled rate.

Event positions are indices in the **global interleaved merge** (the
exact replay order of :func:`~repro.workloads.trace.merge_order`,
warmup included), so scenarios are deterministic and engine-independent.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .suite import get_profile
from .trace import CoreStream, MemoryReference, merge_order


@dataclass(frozen=True)
class LifecycleEvent:
    """One OS-level operation scheduled at a global replay position.

    Fires *before* the reference at index ``position`` of the global
    interleaved merge (warmup included); a position at or past the end
    of the trace fires after the last reference.
    """

    position: int
    kind: str       # "destroy_vm" | "shootdown"
    vm_id: int
    asid: int = 0
    vaddr: int = 0

    def apply(self, machine) -> None:
        if self.kind == "destroy_vm":
            machine.destroy_vm(self.vm_id)
        elif self.kind == "shootdown":
            machine.shootdown(self.vm_id, self.asid, self.vaddr)
        else:
            raise ValueError(f"unknown lifecycle event kind {self.kind!r}")


@dataclass
class LifecycleWorkload:
    """Streams plus the event schedule of one lifecycle scenario."""

    kind: str
    streams: List[CoreStream]
    events: List[LifecycleEvent]
    #: per-VM THP fractions for ``Machine(thp_fractions=...)``
    thp_fractions: Dict[int, float]
    num_cores: int
    boots: int = 0
    teardowns: int = 0
    shootdowns: int = 0
    warmup_references: int = 0
    warmup_by_core: Dict[int, int] = field(default_factory=dict)

    @property
    def references(self) -> int:
        return sum(len(s) for s in self.streams)


# -- merge-order helpers ------------------------------------------------------


def _merge_boundaries(streams: Sequence[CoreStream]
                      ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Global positions after each stream's first and last reference.

    Keyed by ``id(stream)``; read off :func:`merge_order`, which is the
    replay order.
    """
    merged = merge_order(streams)
    where = [0] * len(merged.order)
    for position, j in enumerate(merged.order):
        where[j] = position
    first_after: Dict[int, int] = {}
    last_after: Dict[int, int] = {}
    for stream, start in zip(merged.streams, merged.starts):
        first_after[id(stream)] = where[start] + 1
        last_after[id(stream)] = where[start + len(stream) - 1] + 1
    return first_after, last_after


def _refs_at(streams: Sequence[CoreStream], positions: Sequence[int]
             ) -> List[Tuple[CoreStream, MemoryReference]]:
    """The (stream, reference) replayed at each global index.

    Out-of-range indices are skipped.
    """
    merged = merge_order(streams)
    out: List[Tuple[CoreStream, MemoryReference]] = []
    for position in positions:
        if 0 <= position < len(merged.order):
            stream, index = merged.at(position)
            out.append((stream, stream.references[index]))
    return out


def _shifted(stream: CoreStream, offset: int) -> CoreStream:
    """The same stream with every icount shifted by ``offset``."""
    if not offset:
        return stream
    stream.icounts = array("Q", [ic + offset for ic in stream.icounts])
    stream.validated = False
    return stream


# -- scenario builders --------------------------------------------------------


def build_churn(benchmarks: Sequence[str], generations: int = 5,
                refs_per_core: int = 1500, seed: int = 0,
                scale: float = 0.1) -> LifecycleWorkload:
    """Consolidation churn: G generations of heterogeneous guests.

    Each generation boots one VM per benchmark (one core each); every
    VM is destroyed the moment its trace ends, and the next generation's
    VM boots on the same core with fresh vm_id and *reused* frames.  The
    per-slot seed is constant across generations, so each slot's
    boot/teardown cycle allocates an identical footprint — which makes
    "``bytes_allocated`` is non-growing across teardowns" an exact
    property, not a statistical one.
    """
    if not benchmarks:
        raise ValueError("need at least one benchmark")
    if generations < 1:
        raise ValueError("generations must be positive")
    slots = len(benchmarks)
    streams: List[CoreStream] = []
    thp: Dict[int, float] = {}
    stream_vm: Dict[int, int] = {}
    offsets = [0] * slots
    for generation in range(generations):
        for slot, name in enumerate(benchmarks):
            profile = get_profile(name)
            vm_id = generation * slots + slot + 1
            workload = profile.build(num_cores=1,
                                     refs_per_core=refs_per_core,
                                     seed=seed + slot + 1, scale=scale)
            stream = workload.streams[0]
            stream.core = slot
            stream.vm_id = vm_id
            _shifted(stream, offsets[slot])
            # Next generation on this core starts strictly after us.
            offsets[slot] = stream.instructions + profile.inst_per_ref
            streams.append(stream)
            thp[vm_id] = profile.thp_large_fraction
            stream_vm[id(stream)] = vm_id
    _first, last_after = _merge_boundaries(streams)
    events = [LifecycleEvent(position=last_after[sid], kind="destroy_vm",
                             vm_id=vm_id)
              for sid, vm_id in stream_vm.items()]
    events.sort(key=lambda e: e.position)
    return LifecycleWorkload(kind="churn", streams=streams, events=events,
                             thp_fractions=thp, num_cores=slots,
                             boots=generations * slots,
                             teardowns=generations * slots)


def build_migration(benchmarks: Sequence[str], refs_per_core: int = 2000,
                    seed: int = 0, scale: float = 0.1,
                    bursts: int = 4) -> LifecycleWorkload:
    """Live-migration bursts: guests cold-migrated while still running.

    One VM per benchmark runs continuously; ``bursts`` times during the
    run a VM (round-robin) is destroyed mid-stream.  Its very next
    reference re-boots the vm_id — the cold-migration arrival — so the
    measurement captures the invalidation storm, the re-fault burst and
    the frame reuse together.
    """
    if not benchmarks:
        raise ValueError("need at least one benchmark")
    if bursts < 0:
        raise ValueError("bursts must be >= 0")
    streams: List[CoreStream] = []
    thp: Dict[int, float] = {}
    vm_stream: Dict[int, CoreStream] = {}
    for slot, name in enumerate(benchmarks):
        profile = get_profile(name)
        vm_id = slot + 1
        workload = profile.build(num_cores=1, refs_per_core=refs_per_core,
                                 seed=seed + vm_id, scale=scale)
        stream = workload.streams[0]
        stream.core = slot
        stream.vm_id = vm_id
        streams.append(stream)
        thp[vm_id] = profile.thp_large_fraction
        vm_stream[vm_id] = stream
    total = sum(len(s) for s in streams)
    first_after, last_after = _merge_boundaries(streams)
    events: List[LifecycleEvent] = []
    for burst in range(bursts):
        vm_id = burst % len(benchmarks) + 1
        stream = vm_stream[vm_id]
        position = total * (burst + 1) // (bursts + 1)
        # The victim must already be booted and must run on afterwards
        # (otherwise this is churn, not migration).
        position = max(position, first_after[id(stream)])
        if position >= last_after[id(stream)]:
            continue
        events.append(LifecycleEvent(position=position, kind="destroy_vm",
                                     vm_id=vm_id))
    events.sort(key=lambda e: e.position)
    return LifecycleWorkload(kind="migration", streams=streams,
                             events=events, thp_fractions=thp,
                             num_cores=len(benchmarks),
                             boots=len(benchmarks) + len(events),
                             teardowns=len(events))


def build_shootdown_storm(benchmark: str, num_cores: int = 2,
                          refs_per_core: int = 2000, seed: int = 0,
                          scale: float = 0.1,
                          per_1k_refs: float = 0.0) -> LifecycleWorkload:
    """One guest under a periodic shootdown storm.

    Every ``1000 / per_1k_refs`` measured references, the page of the
    most recently replayed reference is shot down — a recently-touched
    (hence TLB-resident) translation, so each storm tick invalidates
    live state the way another tenant's unmap IPI would.  Rate 0 is the
    interference-free control.
    """
    if per_1k_refs < 0:
        raise ValueError("per_1k_refs must be >= 0")
    profile = get_profile(benchmark)
    workload = profile.build(num_cores=num_cores,
                             refs_per_core=refs_per_core,
                             seed=seed, scale=scale)
    streams = workload.streams
    total = sum(len(s) for s in streams)
    warmup_total = workload.warmup_references
    events: List[LifecycleEvent] = []
    if per_1k_refs > 0:
        interval = max(1, round(1000.0 / per_1k_refs))
        positions = list(range(warmup_total + interval, total, interval))
        targets = _refs_at(streams, [p - 1 for p in positions])
        events = [LifecycleEvent(position=p, kind="shootdown",
                                 vm_id=stream.vm_id, asid=stream.asid,
                                 vaddr=ref[1])
                  for p, (stream, ref) in zip(positions, targets)]
    vm_ids = {s.vm_id for s in streams}
    thp = {vm_id: profile.thp_large_fraction for vm_id in vm_ids}
    return LifecycleWorkload(kind="shootdown", streams=streams,
                             events=events, thp_fractions=thp,
                             num_cores=num_cores, boots=len(vm_ids),
                             shootdowns=len(events),
                             warmup_references=workload.warmup_references,
                             warmup_by_core=workload.warmup_by_core)
