"""Experiment runner: one place that turns (benchmark, scheme) into results.

Every figure driver goes through :class:`SuiteRunner` so that workload
generation, machine construction, warmup policy and the Eq. 2-5 anchor
application are identical across figures — and so results are memoised
when one harness regenerates several figures from the same runs.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..common import addr
from ..common.config import PomTlbConfig, PredictorConfig, SystemConfig
from ..common.errors import ConfigError, RunFailed
from ..core.perfmodel import PerformanceEstimate, estimate
from ..core.system import Machine, SimulationResult
from ..faults import RaiseAtTranslation, corrupt_streams
from ..obs import Observability
from ..workloads.suite import BENCHMARKS, get_profile
from ..workloads.trace import validate_stream

#: Builds the per-run Observability for (benchmark, scheme); None means
#: the Machine default (histograms on, tracing off).
ObsFactory = Callable[[str, str], Optional[Observability]]

#: ExperimentParams fields that steer *execution*, not simulation: they
#: can never change a result, so the checkpoint key excludes them.
EXECUTION_FIELDS = ("workers", "run_timeout_s", "max_retries",
                    "retry_backoff_s", "verify", "batch")


@dataclass(frozen=True)
class ExperimentParams:
    """Knobs shared by every experiment.

    The defaults reproduce the paper's 8-core configuration at a
    footprint scale tractable for pure-Python simulation.  Environment
    variables ``POMTLB_CORES``, ``POMTLB_REFS``, ``POMTLB_SCALE`` and
    ``POMTLB_SEED`` override them, which is how the benchmark harness is
    shrunk or grown without touching code.
    """

    num_cores: int = 8
    refs_per_core: int = 6000
    scale: float = 1.0
    seed: int = 42
    pom_size_bytes: int = 16 * addr.MiB
    cache_tlb_entries: bool = True
    virtualized: bool = True
    # Extension / ablation knobs (paper Sections 2.2, 5.1, footnote 2):
    l4_data_cache_bytes: int = 0
    tlb_priority: bool = False
    predictor_entries: int = 512
    size_counter_bits: int = 1
    bypass_enabled: bool = True
    tlb_prefetch: bool = False
    # Execution knobs (resilient campaign engine; never affect results):
    #: process-pool width for campaign execution; <= 1 runs serially
    workers: int = 0
    #: per-run wall-clock budget in seconds (0 = unlimited; enforced
    #: only under process isolation, i.e. workers >= 2)
    run_timeout_s: float = 0.0
    #: additional attempts after a transient failure
    max_retries: int = 2
    #: base exponential-backoff delay between attempts, seconds
    retry_backoff_s: float = 0.25
    #: arm the consistency audit (:mod:`repro.verify`) during each run;
    #: verified runs are bit-identical to unverified ones, so this is an
    #: execution knob and never enters the checkpoint key
    verify: bool = False
    #: replay through the vectorized batch engine (:mod:`repro.core.batch`)
    #: when it applies; batch and scalar replays are bit-identical, so
    #: this too is an execution knob (``--no-batch`` / ``POMTLB_BATCH=0``
    #: force the scalar loop, e.g. for differential debugging).  ``None``
    #: leaves the choice to ``POMTLB_BATCH`` when each Machine is built
    batch: Optional[bool] = None

    @classmethod
    def from_env(cls, **overrides) -> "ExperimentParams":
        """Build params from the environment, then apply ``overrides``.

        A malformed ``POMTLB_*`` value raises
        :class:`~repro.common.errors.ConfigError` naming the variable
        and the offending text (the CLI maps that to exit code 2).
        """
        env = {
            "num_cores": _env_value("POMTLB_CORES", 8, int),
            "refs_per_core": _env_value("POMTLB_REFS", 6000, int),
            "scale": _env_value("POMTLB_SCALE", 1.0, float),
            "seed": _env_value("POMTLB_SEED", 42, int),
            "workers": _env_value("POMTLB_WORKERS", 0, int),
        }
        env.update(overrides)
        return cls(**env)

    def checkpoint_fields(self) -> Dict[str, object]:
        """Simulation-relevant fields, for the checkpoint content hash.

        Execution knobs (:data:`EXECUTION_FIELDS`) are excluded: running
        the same campaign with a different worker count or timeout must
        still hit the checkpoint.
        """
        fields = dataclasses.asdict(self)
        for name in EXECUTION_FIELDS:
            fields.pop(name)
        return fields

    def system_config(self) -> SystemConfig:
        return SystemConfig(
            num_cores=self.num_cores,
            pom_tlb=PomTlbConfig(size_bytes=self.pom_size_bytes),
            predictor=PredictorConfig(
                entries=self.predictor_entries,
                size_counter_bits=self.size_counter_bits,
                bypass_enabled=self.bypass_enabled),
            cache_tlb_entries=self.cache_tlb_entries,
            virtualized=self.virtualized,
            l4_data_cache_bytes=self.l4_data_cache_bytes,
            tlb_prefetch=self.tlb_prefetch,
        )


def _env_value(name: str, default, convert):
    """Read one ``POMTLB_*`` variable; ConfigError names bad values."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(
            f"environment variable {name}={raw!r} is not a valid "
            f"{convert.__name__}") from None


def simulate_run(benchmark: str, scheme: str, params: ExperimentParams,
                 fault=None, obs: Optional[Observability] = None,
                 workload=None) -> "BenchmarkRun":
    """Simulate one (benchmark, scheme) pair from scratch.

    The single simulation entry point shared by the in-process runner
    and campaign worker processes, so results cannot depend on *where* a
    run executes.  ``fault`` is a ``(kind, n)`` directive from
    :class:`~repro.faults.FaultPlan` (``raise`` / ``corrupt-trace``;
    process-level kinds are handled by the executor).

    ``workload`` replays a pre-compiled workload (the campaign decodes
    the packed bytes on its run request, see
    :func:`repro.resilience.workers.simulate_request`) instead of
    regenerating one; results are bit-identical either way.  Streams
    whose ``validated`` flag is set skip re-validation — any mutation,
    including the ``corrupt-trace`` fault, clears the flag, so damage
    is still caught.
    """
    profile = get_profile(benchmark)
    if workload is None:
        workload = profile.build(num_cores=params.num_cores,
                                 refs_per_core=params.refs_per_core,
                                 seed=params.seed, scale=params.scale)
    if fault is not None and fault[0] == "corrupt-trace":
        corrupt_streams(workload.streams)
    for stream in workload.streams:
        if not stream.validated:
            validate_stream(stream)
    machine_faults = (RaiseAtTranslation(fault[1])
                      if fault is not None and fault[0] == "raise" else None)
    machine = Machine(params.system_config(), scheme=scheme,
                      thp_large_fraction=profile.thp_large_fraction,
                      seed=params.seed,
                      tlb_priority=params.tlb_priority,
                      obs=obs, faults=machine_faults,
                      verify=params.verify or None,
                      batch=params.batch)
    result = machine.run(
        workload.streams,
        warmup_references=workload.warmup_by_core
        or workload.warmup_references)
    anchor = profile.anchor(virtualized=params.virtualized)
    perf = estimate(anchor, result.l2_tlb_misses, result.penalty_cycles)
    return BenchmarkRun(benchmark=benchmark, scheme=scheme,
                        result=result, performance=perf)


@dataclass
class BenchmarkRun:
    """Simulation result + anchored performance estimate for one run."""

    benchmark: str
    scheme: str
    result: SimulationResult
    performance: PerformanceEstimate

    @property
    def improvement_percent(self) -> float:
        return self.performance.improvement_percent


class SuiteRunner:
    """Runs suite benchmarks under schemes, memoising by configuration.

    The runner also carries the campaign's resilience state: runs the
    executor restored or computed are installed into the memo cache, and
    runs it gave up on are recorded in :attr:`failures` so a later
    ``run()`` raises :class:`~repro.common.errors.RunFailed` instead of
    silently re-simulating a run the campaign already declared dead.
    """

    def __init__(self, params: Optional[ExperimentParams] = None,
                 obs_factory: Optional[ObsFactory] = None) -> None:
        self.params = params or ExperimentParams()
        self.obs_factory = obs_factory
        self._cache: Dict[Tuple, BenchmarkRun] = {}
        #: (benchmark, scheme, params) -> RunFailure for exhausted runs
        self.failures: Dict[Tuple, object] = {}
        #: fresh simulations performed by this runner (cache misses)
        self.simulations = 0

    def run(self, benchmark: str, scheme: str,
            params: Optional[ExperimentParams] = None) -> BenchmarkRun:
        """Run one (benchmark, scheme) pair; cached per parameter set."""
        params = params or self.params
        key = (benchmark, scheme, params)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        failure = self.failures.get(key)
        if failure is not None:
            raise RunFailed(benchmark, scheme, failure.attempts,
                            f"{failure.error.type}: {failure.error.message}")
        obs = self.obs_factory(benchmark, scheme) if self.obs_factory else None
        run = simulate_run(benchmark, scheme, params, obs=obs)
        self.simulations += 1
        self._cache[key] = run
        return run

    def install(self, run: BenchmarkRun,
                params: Optional[ExperimentParams] = None,
                simulated: bool = False) -> None:
        """Adopt an externally computed run (worker process / checkpoint)."""
        params = params or self.params
        self._cache[(run.benchmark, run.scheme, params)] = run
        if simulated:
            self.simulations += 1

    def record_failure(self, benchmark: str, scheme: str, failure,
                       params: Optional[ExperimentParams] = None) -> None:
        """Mark a pair as failed; ``run()`` raises RunFailed for it."""
        params = params or self.params
        self.failures[(benchmark, scheme, params)] = failure

    def run_suite(self, scheme: str, benchmarks: Iterable[str] = (),
                  params: Optional[ExperimentParams] = None
                  ) -> List[BenchmarkRun]:
        """Run every benchmark (or a subset) under one scheme."""
        names = list(benchmarks) or BENCHMARKS
        return [self.run(name, scheme, params) for name in names]
