"""Full evaluation campaign: regenerate every table and figure in one go.

``run_all`` executes the complete paper evaluation — Tables 1-2 and
Figures 1-4 and 8-12 plus the Section 4.6 sensitivity studies.  The
campaign is *resilient* (:mod:`repro.resilience`): the full set of
(benchmark, scheme, params) simulations is enumerated up front
(:func:`campaign_requests`), executed serially or in a process pool
with per-run timeouts and retry-with-backoff, and optionally persisted
to a checkpoint store so an interrupted campaign resumes without
re-simulating finished work.  Runs that exhaust their retries are
recorded as structured failures: the figures annotate the missing cells,
a failure summary table closes the report, and the CLI exits non-zero.

The rendered text is what EXPERIMENTS.md quotes.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from typing import Dict, Iterable, List, Optional, TextIO, Tuple

from ..common import addr
from ..faults import NO_FAULTS, FaultPlan
from ..obs import NO_TELEMETRY
from ..resilience import (CheckpointStore, RetryPolicy, RunRequest,
                          execute_runs, run_key)
from ..resilience.workers import simulate_request
from ..workloads.packed import encode_workload
from ..workloads.suite import BENCHMARKS, get_profile
from ..workloads.trace import validate_stream
from . import figures, tables
from .report import Report
from .runner import ExperimentParams, ObsFactory, SuiteRunner

#: Subset used for the (expensive) sensitivity sweeps; spans the
#: pattern space: pointer-chase, random, scan, grid, graph, mixed.
SENSITIVITY_BENCHMARKS = ("astar", "gups", "mcf", "lbm",
                          "ccomponent", "streamcluster")


def _progress_write(stream: TextIO, line: str) -> None:
    """Emit one progress record as a single flushed ``write()``.

    Progress lines land on a stream that pooled completions hammer in
    quick succession; one write per record (never two for text +
    newline) plus an immediate flush is what keeps ``# [k/N]`` lines
    from shearing mid-line when stderr is shared or block-buffered.
    """
    stream.write(line)
    stream.flush()


class CampaignResult(List[Report]):
    """The campaign's reports, plus its resilience bookkeeping.

    A list subclass so existing callers that iterate reports keep
    working; the extra attributes say how the campaign went:

    * ``failures`` — runs that exhausted their attempts (empty = clean);
    * ``simulated`` — fresh simulations actually executed;
    * ``restored`` — runs satisfied from the checkpoint store.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.failures: List[object] = []
        self.simulated = 0
        self.restored = 0


def campaign_requests(params: ExperimentParams,
                      benchmarks: Iterable[str] = (),
                      include_sensitivity: bool = True) -> List[RunRequest]:
    """Every simulation the campaign's figures will ask for.

    Kept in lockstep with the ``run_all`` emission list: a test asserts
    that rendering the campaign from these runs triggers zero additional
    simulations, which is what makes checkpoint-resume exact.
    """
    names = list(benchmarks) or list(BENCHMARKS)
    requests: List[RunRequest] = []

    def need(benchmark: str, scheme: str,
             run_params: ExperimentParams) -> None:
        requests.append(RunRequest(benchmark, scheme, run_params))

    for name in names:                       # fig8 + fig9/10/11 (pom)
        for scheme in figures.FIG8_SCHEMES:
            need(name, scheme, params)
    native = dataclasses.replace(params, virtualized=False)
    for name in names:                       # fig2 (+ fig3 virtualized half)
        need(name, "baseline", params)
        need(name, "baseline", native)       # fig3 native half
    uncached = dataclasses.replace(params, cache_tlb_entries=False)
    for name in names:                       # fig12 ablation
        need(name, "pom", uncached)
    if include_sensitivity:
        sens = [b for b in SENSITIVITY_BENCHMARKS if b in names]
        for capacity in (8, 16, 32):         # Section 4.6 capacity sweep
            capacity_params = dataclasses.replace(
                params, pom_size_bytes=capacity * addr.MiB)
            for name in sens:
                need(name, "pom", capacity_params)
        for cores in (4, 8):                 # Section 4.6 core sweep
            core_params = dataclasses.replace(params, num_cores=cores)
            for name in sens:
                need(name, "pom", core_params)
    return requests


def _compile_workloads(requests: List[RunRequest]
                       ) -> Tuple[List[RunRequest], int]:
    """Attach each request's packed workload; returns (requests, compiled).

    A workload is fixed by (benchmark, num_cores, refs_per_core, seed,
    scale), so each distinct one is generated, validated and packed once
    here in the parent instead of once per scheme inside every run.
    """
    compiled: Dict[tuple, bytes] = {}
    attached = []
    for request in requests:
        params = request.params
        key = (request.benchmark, params.num_cores, params.refs_per_core,
               params.seed, params.scale)
        blob = compiled.get(key)
        if blob is None:
            workload = get_profile(request.benchmark).build(
                num_cores=params.num_cores,
                refs_per_core=params.refs_per_core,
                seed=params.seed, scale=params.scale)
            for stream in workload.streams:
                validate_stream(stream)
            blob = compiled[key] = encode_workload(workload, validated=True)
        attached.append(dataclasses.replace(request, workload=blob))
    return attached, len(compiled)


def run_all(params: Optional[ExperimentParams] = None,
            benchmarks: Iterable[str] = (),
            out: TextIO = sys.stdout,
            include_sensitivity: bool = True,
            obs_factory: Optional[ObsFactory] = None,
            checkpoint_path: str = "",
            resume: bool = False,
            faults: FaultPlan = NO_FAULTS,
            progress: Optional[TextIO] = None,
            telemetry=NO_TELEMETRY) -> CampaignResult:
    """Run the whole campaign, streaming rendered reports to ``out``.

    ``KeyboardInterrupt`` propagates to the caller after worker teardown;
    with a checkpoint configured, everything finished so far is already
    on disk, so the same command with ``resume=True`` picks up where the
    interruption hit.  Per-run progress goes to ``progress`` (default
    stderr); the report stream on ``out`` stays byte-deterministic.

    ``telemetry`` (default :data:`repro.obs.NO_TELEMETRY`) emits
    NDJSON status events, folds them into a snapshot, and writes the
    Prometheus/dashboard artifacts from it on completion — see
    :mod:`repro.obs.telemetry`.  Telemetry writes only to its own files
    and the progress stream; the report on ``out`` stays byte-identical
    with telemetry on or off.

    ``obs_factory`` observes in-process runs only: with
    ``params.workers > 1`` the runs execute in worker processes and it
    is not called.
    """
    params = params or ExperimentParams.from_env()
    progress = progress if progress is not None else sys.stderr
    parallel = params.workers > 1
    runner = SuiteRunner(params,
                         obs_factory=None if parallel else obs_factory)
    names = list(benchmarks) or list(BENCHMARKS)
    requests = campaign_requests(params, names, include_sensitivity)

    checkpoint = None
    if checkpoint_path:
        checkpoint = CheckpointStore(checkpoint_path, faults=faults,
                                     load=resume)
        if resume and checkpoint.skipped_lines:
            _progress_write(progress,
                            f"# checkpoint: skipped "
                            f"{checkpoint.skipped_lines} damaged line(s)\n")

    retry = RetryPolicy(max_retries=params.max_retries,
                        base_delay_s=params.retry_backoff_s,
                        seed=params.seed)
    # Keys collapse duplicate requests (the sensitivity sweep shares
    # points with the main grid) exactly like the executor does, so the
    # progress count and total_runs both end at completed + failed +
    # restored.
    total = len({run_key(r.benchmark, r.scheme, r.params)
                 for r in requests})
    done = {"count": 0}

    def on_outcome(outcome) -> None:
        done["count"] += 1
        state = ("restored" if outcome.restored
                 else "ok" if outcome.ok
                 else f"FAILED ({outcome.failure.error.type})")
        _progress_write(progress,
                        f"# [{done['count']}/{total}] "
                        f"{outcome.request.label} {state}\n")

    if telemetry.enabled:
        telemetry.campaign_start(total, params.workers)

    try:
        return _run_all_inner(params, names, requests, out, progress,
                              include_sensitivity, runner,
                              simulate_parallel=parallel,
                              checkpoint=checkpoint, retry=retry,
                              faults=faults,
                              on_outcome=on_outcome,
                              telemetry=telemetry)
    finally:
        # Close the status stream even when the campaign dies mid-way —
        # a tailing `pomtlb top` then sees a complete final line.
        telemetry.close()


def _run_all_inner(params, names, requests, out, progress,
                   include_sensitivity, runner, *,
                   simulate_parallel, checkpoint, retry, faults,
                   on_outcome, telemetry) -> CampaignResult:
    parallel = simulate_parallel
    # Monotonic, not wall clock: an NTP step mid-campaign must not
    # corrupt the finishing time (or any duration derived from it).
    started = time.monotonic()
    requests, compiled = _compile_workloads(requests)
    _progress_write(progress, f"# workloads: {compiled} compiled\n")
    if telemetry.enabled:
        telemetry.workloads_compiled(compiled)

    simulate = None
    if not parallel:
        def simulate(request, fault):  # in-process: keep obs support
            obs = (runner.obs_factory(request.benchmark, request.scheme)
                   if runner.obs_factory else None)
            return simulate_request(request, fault, obs=obs)

    outcomes = execute_runs(requests,
                            workers=params.workers,
                            timeout_s=params.run_timeout_s,
                            retry=retry,
                            faults=faults,
                            checkpoint=checkpoint,
                            on_outcome=on_outcome,
                            simulate=simulate,
                            telemetry=telemetry)

    result = CampaignResult()
    for outcome in outcomes:
        if outcome.ok:
            runner.install(outcome.run, outcome.request.params)
            if outcome.restored:
                result.restored += 1
            else:
                result.simulated += 1
        else:
            runner.record_failure(outcome.request.benchmark,
                                  outcome.request.scheme,
                                  outcome.failure, outcome.request.params)
            result.failures.append(outcome.failure)

    def emit(report: Report) -> None:
        result.append(report)
        out.write(report.render())
        out.write("\n\n")
        out.flush()

    # Only simulation-relevant fields go into the header: execution
    # knobs (workers, timeouts, verify, batch engine) can never change
    # the report, so two campaigns that differ only in how they ran
    # stay byte-identical.
    sim_params = ", ".join(f"{name}={value!r}" for name, value
                           in params.checkpoint_fields().items())
    out.write(f"# POM-TLB evaluation campaign\n"
              f"# params: {sim_params}\n\n")
    emit(tables.table1(params.system_config()))
    emit(tables.table2())
    emit(figures.fig1_walk_steps())
    emit(figures.fig4_sram_latency())
    emit(figures.fig8_performance(runner, names))
    emit(figures.fig9_hit_ratio(runner, names))
    emit(figures.fig10_predictors(runner, names))
    emit(figures.fig11_row_buffer(runner, names))
    emit(figures.fig2_translation_cycles(runner, names))
    emit(figures.fig3_virt_native_ratio(runner, names))
    emit(figures.fig12_caching_ablation(runner, names))
    if include_sensitivity:
        sens = [b for b in SENSITIVITY_BENCHMARKS if b in names]
        emit(figures.sensitivity_capacity(runner, sens))
        emit(figures.sensitivity_cores(runner, sens))
    if result.failures:
        emit(_failure_summary(result.failures))
    # Timing goes to the progress stream, not the report: the report
    # must be byte-identical run to run for a fixed seed.
    _progress_write(progress,
                    f"# campaign finished in "
                    f"{time.monotonic() - started:.0f}s\n")
    out.flush()
    result.simulated += runner.simulations
    if telemetry.enabled:
        telemetry.campaign_end(simulated=result.simulated)
        for path in telemetry.export():
            _progress_write(progress, f"# telemetry: wrote {path}\n")
    return result


def _failure_summary(failures) -> Report:
    """The closing table a degraded campaign renders (and CLI exit 1)."""
    report = Report(title="Campaign failures",
                    headers=("benchmark", "scheme", "attempts", "error"))
    for failure in failures:
        report.add_row(failure.benchmark, failure.scheme, failure.attempts,
                       f"{failure.error.type}: {failure.error.message}")
    report.add_note("cells for these runs are rendered as n/a; rerun with "
                    "--checkpoint/--resume to retry only the failed runs")
    return report
