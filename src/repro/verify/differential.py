"""Differential audit: one trace, every scheme, cross-checked.

The audit replays one benchmark workload through all translation
schemes with the invariant checkers armed, then cross-checks:

* **functional truth** — translation must never change *what* is
  mapped: after the run every scheme's demand-paged page tables carry
  identical (vm, asid, vpn) -> host-frame mappings;
* **per-scheme invariants** — the :mod:`repro.verify.invariants`
  checkers run inside each simulation.

The counters themselves are pinned by the golden fixtures of the test
suite (``tests/golden/``), which record this audit's CI configuration.

On a violation the failing trace is shrunk ddmin-style to a minimal
reproducing trace and written as a packed ``.pwl`` artifact
(:mod:`repro.workloads.packed`), whose path rides on the raised
:class:`~repro.common.errors.VerificationError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.errors import VerificationError
from ..core.mmu import SCHEMES
from ..core.system import Machine, SimulationResult
from ..workloads.packed import save_packed
from ..workloads.suite import get_profile
from ..workloads.trace import CoreStream

#: Schemes the audit covers by default (every implemented scheme).
ALL_SCHEMES = tuple(SCHEMES)

#: Budget of candidate re-simulations the shrinker may spend.
_SHRINK_BUDGET = 200


@dataclass
class AuditReport:
    """Outcome of one benchmark audit (raises before returning on failure)."""

    benchmark: str
    schemes: Tuple[str, ...]
    results: Dict[str, SimulationResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return set(self.schemes) == set(self.results)


def _build_machine(scheme: str, params, profile,
                   invariants: Optional[Sequence[str]] = None) -> Machine:
    """Mirror ``simulate_run``'s machine construction, verifier armed."""
    from .verifier import Verifier

    verifier = (Verifier.for_names(invariants) if invariants
                else Verifier())
    return Machine(params.system_config(), scheme=scheme,
                   thp_large_fraction=profile.thp_large_fraction,
                   seed=params.seed, tlb_priority=params.tlb_priority,
                   verify=verifier)


def _page_snapshot(machine: Machine) -> Dict[Tuple[int, int], Tuple]:
    """Frozen (vm, asid) -> (small vpn->frame, large vpn->frame) maps."""
    snapshot: Dict[Tuple[int, int], Tuple] = {}
    if machine.config.virtualized:
        contexts = [((vm_id, asid), proc)
                    for vm_id, vm in machine.host.vms.items()
                    for asid, proc in vm.processes.items()]
    else:
        contexts = [((0, asid), proc)
                    for asid, proc in machine._native_processes.items()]
    for key, proc in contexts:
        snapshot[key] = (
            {vpn: page.host_frame for vpn, page in proc.small_pages.items()},
            {vpn: page.host_frame for vpn, page in proc.large_pages.items()})
    return snapshot


# -- trace shrinking ----------------------------------------------------------


def _total_references(streams: Sequence[CoreStream]) -> int:
    return sum(len(stream) for stream in streams)


def _drop_window(streams: Sequence[CoreStream], start: int,
                 length: int) -> List[CoreStream]:
    """Remove ``length`` references starting at global offset ``start``."""
    out: List[CoreStream] = []
    offset = 0
    for stream in streams:
        lo = max(0, start - offset)
        hi = max(0, start + length - offset)
        offset += len(stream)
        kept = CoreStream(stream.core, stream.vm_id, stream.asid)
        kept.icounts = stream.icounts[:lo] + stream.icounts[hi:]
        kept.vaddrs = stream.vaddrs[:lo] + stream.vaddrs[hi:]
        kept.writes = stream.writes[:lo] + stream.writes[hi:]
        if len(kept):
            out.append(kept)
    return out


def shrink_trace(streams: Sequence[CoreStream], still_fails,
                 budget: int = _SHRINK_BUDGET) -> List[CoreStream]:
    """ddmin-style chunk removal: smallest trace on which ``still_fails``.

    ``still_fails(candidate_streams) -> bool`` re-runs the simulation;
    the search is capped at ``budget`` candidate evaluations, so the
    result is minimal-ish, not guaranteed 1-minimal, on huge traces.
    """
    current = list(streams)
    spent = 0
    chunk = max(1, _total_references(current) // 2)
    while chunk >= 1 and spent < budget:
        removed_any = False
        start = 0
        while start < _total_references(current) and spent < budget:
            candidate = _drop_window(current, start, chunk)
            if not candidate or not _total_references(candidate):
                start += chunk
                continue
            spent += 1
            if still_fails(candidate):
                current = candidate  # keep the smaller failing trace
                removed_any = True
            else:
                start += chunk
        if chunk == 1 and not removed_any:
            break
        chunk = max(1, chunk // 2) if chunk > 1 else 0
    return current


# -- audit entry points -------------------------------------------------------


def _violation_fails(scheme: str, params, profile,
                     invariants: Optional[Sequence[str]] = None):
    """Predicate for the shrinker: does this trace still violate?"""

    def still_fails(streams: Sequence[CoreStream]) -> bool:
        machine = _build_machine(scheme, params, profile, invariants)
        try:
            machine.run(streams)
        except VerificationError:
            return True
        except Exception:
            return False
        return False

    return still_fails


def _shrunk_artifact(benchmark: str, scheme: str, params, profile,
                     streams: Sequence[CoreStream], artifact_dir: str,
                     invariants: Optional[Sequence[str]] = None) -> str:
    """Shrink a violating trace and write the packed repro artifact."""
    still_fails = _violation_fails(scheme, params, profile, invariants)
    # Warmup is dropped during shrinking; only shrink when the plain
    # replay still violates, else ship the full workload as the repro.
    minimal = (shrink_trace(streams, still_fails)
               if still_fails(list(streams)) else list(streams))
    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.join(artifact_dir,
                        f"{benchmark}-{scheme}-violation.pwl")
    save_packed(path, minimal, benchmark=benchmark)
    return path


def audit_benchmark(benchmark: str, params,
                    schemes: Sequence[str] = ALL_SCHEMES,
                    invariants: Optional[Sequence[str]] = None,
                    shrink: bool = True,
                    artifact_dir: str = "audit-artifacts") -> AuditReport:
    """Audit one benchmark across schemes; raises on any violation.

    Returns an :class:`AuditReport` when every scheme passes its
    invariants and all schemes agree on the functional page mappings.
    """
    profile = get_profile(benchmark)
    workload = profile.build(num_cores=params.num_cores,
                             refs_per_core=params.refs_per_core,
                             seed=params.seed, scale=params.scale)
    warmup = workload.warmup_by_core or workload.warmup_references
    report = AuditReport(benchmark=benchmark, schemes=tuple(schemes))
    snapshots: Dict[str, Dict] = {}
    for scheme in schemes:
        machine = _build_machine(scheme, params, profile, invariants)
        try:
            result = machine.run(workload.streams,
                                 warmup_references=warmup)
        except VerificationError as violation:
            if not shrink:
                raise
            artifact = _shrunk_artifact(benchmark, scheme, params, profile,
                                        workload.streams, artifact_dir,
                                        invariants)
            raise VerificationError(violation.invariant,
                                    f"[{benchmark}/{scheme}] "
                                    f"{violation.detail}",
                                    artifact=artifact) from violation
        report.results[scheme] = result
        snapshots[scheme] = _page_snapshot(machine)
    # Functional truth: translation must not change what is mapped.
    baseline_scheme = schemes[0]
    truth = snapshots[baseline_scheme]
    for scheme in schemes[1:]:
        if snapshots[scheme] != truth:
            raise VerificationError(
                "functional-divergence",
                f"[{benchmark}] schemes {baseline_scheme!r} and "
                f"{scheme!r} resolved different page mappings for the "
                f"same trace")
    return report
