"""Lifecycle studies: consolidation churn, migration, shootdown sweeps.

The paper measures steady-state guests; a consolidated host also pays
for the *transitions* — guests booting and tearing down (``invalidate_vm``
storms plus frame reclamation), cold migrations, and TLB shootdown IPIs
from unrelated tenants.  These studies replay the scenarios of
:mod:`repro.workloads.lifecycle` under every scheme and report how each
absorbs the churn.

The churn and migration studies report raw simulator metrics (the VMs
run different benchmarks, so no single Eq. 2-5 anchor applies — the
:mod:`.consolidation` convention); the shootdown sweep runs one
benchmark and anchors each rate with Eq. 2-5, giving the
speedup-vs-shootdown-rate curve per scheme.

Mid-run lifecycle events force the scalar engine (the batch engine
declines with ``batch_fallback_reason`` rather than replay them
unsoundly), so every study here is engine-independent by construction;
the rate-0 sweep column still batches and stays bit-identical.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..common.config import PomTlbConfig, SystemConfig
from ..core.mmu import SCHEMES
from ..core.perfmodel import estimate
from ..core.system import Machine
from ..workloads.lifecycle import (LifecycleWorkload, build_churn,
                                   build_migration, build_shootdown_storm)
from ..workloads.suite import get_profile
from .report import Report
from .runner import ExperimentParams

ALL_SCHEMES = tuple(SCHEMES)
DEFAULT_CHURN_MIX = ("gcc", "mcf", "canneal", "gups")
DEFAULT_MIGRATION_MIX = ("graph500", "mcf", "gups")
#: shootdowns per 1000 measured references (0 = interference-free control)
DEFAULT_RATES = (0.0, 1.0, 5.0, 20.0)


class _Recorded:
    """Event proxy: applies the wrapped event, then samples the allocator.

    The samples — ``bytes_allocated`` immediately after each teardown —
    are what "reclamation works" means: the post-teardown series must
    not trend upward across generations.
    """

    def __init__(self, event, samples: List[int]):
        self.position = event.position
        self._event = event
        self._samples = samples

    def apply(self, machine) -> None:
        self._event.apply(machine)
        self._samples.append(machine.host.memory.bytes_allocated)


def _run_scenario(workload: LifecycleWorkload, scheme: str,
                  params: ExperimentParams, samples: Optional[List[int]] = None):
    """Replay one lifecycle scenario under one scheme.

    Returns ``(result, machine)``.  Mirrors
    :func:`~repro.experiments.runner.simulate_run`'s machine
    construction so verify/batch semantics are identical everywhere.
    """
    config = SystemConfig(
        num_cores=workload.num_cores,
        pom_tlb=PomTlbConfig(size_bytes=params.pom_size_bytes))
    events = workload.events
    if samples is not None:
        events = [_Recorded(e, samples) if e.kind == "destroy_vm" else e
                  for e in events]
    machine = Machine(config, scheme=scheme,
                      thp_fractions=workload.thp_fractions,
                      seed=params.seed,
                      verify=params.verify or None,
                      batch=params.batch)
    result = machine.run(
        workload.streams,
        warmup_references=workload.warmup_by_core
        or workload.warmup_references,
        events=events)
    return result, machine


def churn_study(params: Optional[ExperimentParams] = None,
                benchmarks: Iterable[str] = DEFAULT_CHURN_MIX,
                generations: int = 5,
                schemes: Iterable[str] = ALL_SCHEMES) -> Report:
    """Consolidation churn: every VM slot reboots ``generations`` times.

    Each teardown is a full ``destroy_vm`` — invalidate everywhere, purge
    walkers, reclaim frames — so the study exercises the reclamation path
    as hard as the translation path.  ``mem_final`` must be 0 (every
    guest destroyed) and ``mem_peak`` bounds the host's working set.
    """
    params = params or ExperimentParams()
    mix = list(benchmarks)
    workload = build_churn(mix, generations=generations,
                           refs_per_core=params.refs_per_core,
                           seed=params.seed, scale=params.scale)
    report = Report(
        title=f"Lifecycle churn: {len(mix)} slots x {generations} "
              f"generations ({', '.join(mix)})",
        headers=("scheme", "l2_tlb_misses", "page_walks",
                 "cycles_per_miss", "mem_final_bytes", "mem_peak_bytes"))
    for scheme in schemes:
        samples: List[int] = []
        result, machine = _run_scenario(workload, scheme, params, samples)
        memory = machine.host.memory
        report.add_row(scheme, result.l2_tlb_misses, result.page_walks,
                       result.avg_penalty_per_miss,
                       memory.bytes_allocated, memory.peak_bytes)
        if samples and samples[-1] != 0:
            report.add_note(f"WARNING {scheme}: {samples[-1]} bytes still "
                            "allocated after the final teardown (leak)")
    report.add_note(f"{workload.boots} boots, {workload.teardowns} "
                    "teardowns; every teardown reclaims the guest's "
                    "frames, so mem_final_bytes must be 0")
    return report


def migration_study(params: Optional[ExperimentParams] = None,
                    benchmarks: Iterable[str] = DEFAULT_MIGRATION_MIX,
                    bursts: int = 4,
                    schemes: Iterable[str] = ALL_SCHEMES) -> Report:
    """Cold-migration bursts: guests destroyed and re-faulted mid-run.

    Each burst invalidates one VM everywhere mid-stream; its next
    reference re-boots the vm_id on reclaimed frames with a cold
    translation set.  Schemes that retain many VMs' translations (the
    POM-TLB pitch) re-warm from DRAM instead of page walks.
    """
    params = params or ExperimentParams()
    mix = list(benchmarks)
    workload = build_migration(mix, refs_per_core=params.refs_per_core,
                               seed=params.seed, scale=params.scale,
                               bursts=bursts)
    report = Report(
        title=f"Lifecycle migration: {len(mix)} VMs, "
              f"{len(workload.events)} bursts ({', '.join(mix)})",
        headers=("scheme", "l2_tlb_misses", "page_walks",
                 "cycles_per_miss", "walk_elimination"))
    for scheme in schemes:
        result, _machine = _run_scenario(workload, scheme, params)
        report.add_row(scheme, result.l2_tlb_misses, result.page_walks,
                       result.avg_penalty_per_miss,
                       result.walk_elimination)
    report.add_note("each burst cold-migrates one VM (destroy + re-fault "
                    "on reclaimed frames); misses include the re-warm "
                    "traffic")
    return report


def shootdown_sweep(params: Optional[ExperimentParams] = None,
                    benchmark: str = "gups",
                    rates: Iterable[float] = DEFAULT_RATES,
                    schemes: Iterable[str] = ALL_SCHEMES) -> Report:
    """Speedup vs. shootdown rate, every scheme (interference sweep).

    One guest, a periodic storm shooting down recently-touched pages at
    each rate; cells are Eq. 2-5 improvement % over the anchored
    baseline.  Rate 0 is the no-interference control (and the one row
    the batch engine may replay — results are bit-identical either way).
    """
    params = params or ExperimentParams()
    scheme_list = list(schemes)
    profile = get_profile(benchmark)
    anchor = profile.anchor(virtualized=params.virtualized)
    report = Report(
        title=f"Shootdown interference: {benchmark}, improvement % "
              "vs. storm rate",
        headers=("shootdowns_per_1k_refs",) + tuple(scheme_list))
    for rate in rates:
        workload = build_shootdown_storm(
            benchmark, num_cores=params.num_cores,
            refs_per_core=params.refs_per_core, seed=params.seed,
            scale=params.scale, per_1k_refs=rate)
        row = [rate]
        for scheme in scheme_list:
            result, _machine = _run_scenario(workload, scheme, params)
            perf = estimate(anchor, result.l2_tlb_misses,
                            result.penalty_cycles)
            row.append(perf.improvement_percent)
        report.add_row(*row)
    report.add_note("each storm tick shoots down the most recently "
                    "touched page (TLB-resident, both sizes dropped "
                    "end-to-end); rates are shootdowns per 1000 "
                    "measured references")
    return report
