"""Multi-VM consolidation workloads (paper Section 5.2).

Cloud hosts run many VMs at once; the POM-TLB's pitch for that world is
that one large shared structure retains every VM's translations
simultaneously, keyed by VM ID.  This module builds such mixes: each VM
runs one suite benchmark on its own cores, and the resulting streams can
be fed to a single :class:`~repro.core.system.Machine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .suite import BenchmarkProfile, get_profile
from .trace import CoreStream


@dataclass
class VmAssignment:
    """One VM of the mix: which benchmark it runs and on which cores."""

    vm_id: int
    profile: BenchmarkProfile
    cores: Tuple[int, ...]


@dataclass
class ConsolidatedWorkload:
    """Streams of every VM plus the combined warmup budget."""

    assignments: List[VmAssignment]
    streams: List[CoreStream]
    warmup_references: int
    #: per-core prologue lengths; benchmarks tick their instruction
    #: clocks at different rates, so Machine.run needs the mapping form
    warmup_by_core: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Index assignments by vm_id once: a silent duplicate would make
        # one VM's THP policy shadow another's.
        self._by_vm: Dict[int, VmAssignment] = {}
        for assignment in self.assignments:
            if assignment.vm_id in self._by_vm:
                raise ValueError(
                    f"duplicate vm_id {assignment.vm_id} in consolidated "
                    f"workload (assignments must be unique per VM)")
            self._by_vm[assignment.vm_id] = assignment

    @property
    def references(self) -> int:
        return sum(len(s) for s in self.streams)

    def thp_fractions(self) -> Dict[int, float]:
        """``{vm_id: large fraction}`` for ``Machine(thp_fractions=...)``."""
        return {vm_id: a.profile.thp_large_fraction
                for vm_id, a in self._by_vm.items()}


def build_consolidation(benchmarks: Sequence[str], cores_per_vm: int = 1,
                        refs_per_core: int = 3000, seed: int = 0,
                        scale: float = 0.25) -> ConsolidatedWorkload:
    """Assign each benchmark to its own VM on a disjoint core set.

    VM ids start at 1; core ids are packed (VM i gets cores
    ``[i*cores_per_vm, (i+1)*cores_per_vm)``), so the total machine
    needs ``len(benchmarks) * cores_per_vm`` cores.
    """
    if not benchmarks:
        raise ValueError("need at least one benchmark")
    if cores_per_vm < 1:
        raise ValueError("cores_per_vm must be positive")
    assignments: List[VmAssignment] = []
    streams: List[CoreStream] = []
    warmup_total = 0
    warmup_by_core: Dict[int, int] = {}
    for index, name in enumerate(benchmarks):
        profile = get_profile(name)
        vm_id = index + 1
        base_core = index * cores_per_vm
        workload = profile.build(num_cores=cores_per_vm,
                                 refs_per_core=refs_per_core,
                                 seed=seed + vm_id, scale=scale)
        for stream in workload.streams:
            warmup = workload.warmup_by_core.get(stream.core, 0)
            stream.core += base_core
            stream.vm_id = vm_id
            streams.append(stream)
            if warmup:
                warmup_by_core[stream.core] = warmup
        warmup_total += workload.warmup_references
        assignments.append(VmAssignment(
            vm_id=vm_id, profile=profile,
            cores=tuple(range(base_core, base_core + cores_per_vm))))
    return ConsolidatedWorkload(assignments=assignments, streams=streams,
                                warmup_references=warmup_total,
                                warmup_by_core=warmup_by_core)
