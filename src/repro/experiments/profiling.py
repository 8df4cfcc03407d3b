"""``pomtlb profile``: where does the *simulator* spend wall-clock time?

Runs one benchmark under one scheme with a
:class:`~repro.obs.profiler.SelfTimeProfiler` wrapped around the major
component boundaries and renders the per-component self-time table.
This is the observability companion every optimisation PR should quote:
it tells us which simulated component costs host time, not which
simulated component costs simulated cycles.
"""

from __future__ import annotations

from time import perf_counter

from ..core.system import Machine
from ..obs.profiler import SelfTimeProfiler
from ..workloads.suite import get_profile
from .report import Report
from .runner import ExperimentParams


def profile_benchmark(params: ExperimentParams, benchmark: str,
                      scheme: str = "pom") -> Report:
    """Profile one simulation run; returns the self-time table."""
    profile = get_profile(benchmark)
    workload = profile.build(num_cores=params.num_cores,
                             refs_per_core=params.refs_per_core,
                             seed=params.seed, scale=params.scale)
    machine = Machine(params.system_config(), scheme=scheme,
                      thp_large_fraction=profile.thp_large_fraction,
                      seed=params.seed, tlb_priority=params.tlb_priority,
                      batch=params.batch)
    profiler = SelfTimeProfiler()
    profiler.install(machine)
    started = perf_counter()
    machine.run(workload.streams,
                warmup_references=workload.warmup_by_core
                or workload.warmup_references)
    wall = perf_counter() - started
    profiler.uninstall()

    report = Report(
        title=f"Profile: {benchmark} under {scheme} "
              f"({params.num_cores} cores, simulator self-time)",
        headers=("component", "calls", "total_s", "self_s", "self_pct"))
    for row in profiler.rows():
        report.add_row(row["component"], row["calls"], row["total_s"],
                       row["self_s"], row["self_pct"])
    accounted = sum(r["self_s"] for r in profiler.rows())
    report.add_note(f"run wall-clock {wall:.2f}s; "
                    f"{accounted:.2f}s attributed to wrapped components, "
                    "the rest is trace replay and interpreter overhead")
    if machine.last_replay_mode == "batch":
        report.add_note("replay engine: batch (vectorized columnar); "
                        "inlined hit paths bypass the wrapped component "
                        "boundaries, so self-times cover the residual "
                        "scalar calls only")
    else:
        report.add_note("replay engine: scalar"
                        + (f" ({machine.batch_fallback_reason})"
                           if machine.batch_fallback_reason else ""))
    report.add_note("self_s excludes time spent in other wrapped components "
                    "called from this one")
    return report
