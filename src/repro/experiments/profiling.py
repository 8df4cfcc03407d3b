"""``pomtlb profile``: where does the *simulator* spend wall-clock time?

Runs one benchmark under one scheme inside the standard library's
:mod:`cProfile` and folds its per-function self times into one row per
``repro`` module (``core.mmu``, ``cache.hierarchy``, ``paging.nested``,
``dram.channel``, ...), plus one ``(builtins)`` row for C builtins and
library code outside ``repro``.  This is the observability companion
every optimisation PR should quote: it tells us which simulated
component costs host time, not which simulated component costs
simulated cycles.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from ..core.system import Machine
from ..workloads.suite import get_profile
from .report import Report
from .runner import ExperimentParams

#: Directory of the ``repro`` package; code under it gets its own rows.
_PACKAGE = Path(__file__).resolve().parent.parent
#: Row that collects everything outside the ``repro`` package.
_BUILTINS = "(builtins)"


def _layer(filename: str) -> str:
    """``repro``-relative dotted module of ``filename``, or _BUILTINS."""
    try:
        relative = Path(filename).resolve().relative_to(_PACKAGE)
    except ValueError:  # "~" (C builtins) or a file outside repro
        return _BUILTINS
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or "repro"


def _layer_rows(stats: pstats.Stats) -> List[list]:
    """``[layer, calls, self_s, self_pct]`` rows, heaviest self time first."""
    layers: Dict[str, list] = {}
    for (filename, _line, _name), (_cc, calls, self_s, _cum, _callers) \
            in stats.stats.items():
        row = layers.setdefault(_layer(filename), [0, 0.0])
        row[0] += calls
        row[1] += self_s
    total = sum(self_s for _calls, self_s in layers.values()) or 1.0
    return [[layer, calls, self_s, 100.0 * self_s / total]
            for layer, (calls, self_s) in sorted(
                layers.items(), key=lambda kv: -kv[1][1])]


def profile_benchmark(params: ExperimentParams, benchmark: str,
                      scheme: str = "pom") -> Report:
    """Profile one simulation run; returns the per-layer self-time table."""
    profile = get_profile(benchmark)
    workload = profile.build(num_cores=params.num_cores,
                             refs_per_core=params.refs_per_core,
                             seed=params.seed, scale=params.scale)
    machine = Machine(params.system_config(), scheme=scheme,
                      thp_large_fraction=profile.thp_large_fraction,
                      seed=params.seed, tlb_priority=params.tlb_priority,
                      batch=params.batch)
    profiler = cProfile.Profile()
    started = perf_counter()
    profiler.runcall(machine.run, workload.streams,
                     warmup_references=workload.warmup_by_core
                     or workload.warmup_references)
    wall = perf_counter() - started
    rows = _layer_rows(pstats.Stats(profiler))

    report = Report(
        title=f"Profile: {benchmark} under {scheme} "
              f"({params.num_cores} cores, simulator self-time)",
        headers=("layer", "calls", "self_s", "self_pct"))
    for row in rows:
        report.add_row(*row)
    accounted = sum(row[2] for row in rows)
    report.add_note(f"run wall-clock {wall:.2f}s under cProfile; "
                    f"{accounted:.2f}s of function self time, the rest is "
                    "profiler overhead")
    if machine.last_replay_mode == "batch":
        report.add_note("replay engine: batch (vectorized columnar); "
                        "its inlined hit paths count as core.batch self "
                        "time")
    else:
        report.add_note("replay engine: scalar"
                        + (f" ({machine.batch_fallback_reason})"
                           if machine.batch_fallback_reason else ""))
    report.add_note("self_s is time in a layer's own functions, "
                    f"excluding the functions they call; {_BUILTINS} is C "
                    "builtins and library code outside repro")
    return report
