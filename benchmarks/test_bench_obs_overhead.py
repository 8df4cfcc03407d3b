"""Perf guard: the disabled-observability hot path must stay free.

The observability tentpole promises that with tracing off the
instrumentation compiled into the simulator costs one attribute check
per event site.  This benchmark holds it to that: a default Machine
(null tracer, histograms on) must run within 5% of a Machine with
observability fully disabled (the seed simulator's exact hot path),
plus a small absolute slack to absorb timer noise.  The run is sized so
the disabled side takes at least a second, keeping that slack near 5%
of the run rather than hiding a real overhead.
"""

import gc
from time import perf_counter

from repro.common.config import SystemConfig
from repro.core.system import Machine
from repro.obs import Observability
from repro.workloads.suite import get_profile

_ROUNDS = 5
_SLACK_SECONDS = 0.05


def _make_run(obs_builder):
    profile = get_profile("gups")
    workload = profile.build(num_cores=2, refs_per_core=100000,
                             seed=7, scale=0.2)

    def run():
        machine = Machine(SystemConfig(num_cores=2), scheme="pom",
                          thp_large_fraction=profile.thp_large_fraction,
                          seed=7, obs=obs_builder())
        machine.run(workload.streams)

    return run


def _best_of(fn, rounds=_ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        started = perf_counter()
        fn()
        best = min(best, perf_counter() - started)
    return best


def _best_of_alternating(first, second, rounds=_ROUNDS):
    """Best time of each of two runs, timed in alternation.

    Alternating rounds expose both sides to the same host load, so a
    busy spell cannot land on one side only.  A full collection before
    each timed run keeps one side's leftover garbage out of the other
    side's timing.
    """
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for side, fn in enumerate((first, second)):
            gc.collect()
            started = perf_counter()
            fn()
            best[side] = min(best[side], perf_counter() - started)
    return best


def test_bench_disabled_observability_overhead(benchmark, bench_json):
    baseline_run = _make_run(Observability.disabled)
    default_run = _make_run(lambda: None)  # Machine's default Observability

    baseline_run()  # shared warm-up: imports, allocator, branch caches
    default_run()

    baseline, instrumented = benchmark.pedantic(
        lambda: _best_of_alternating(baseline_run, default_run),
        rounds=1, iterations=1)
    overhead = instrumented / baseline - 1.0
    print(f"\nbaseline {baseline:.3f}s, instrumented {instrumented:.3f}s, "
          f"overhead {100 * overhead:+.1f}%")
    bench_json("obs_overhead", {
        "workload": "gups",
        "params": {"num_cores": 2, "refs_per_core": 100000,
                   "scale": 0.2, "seed": 7},
        "rounds": _ROUNDS,
        "disabled_s": round(baseline, 4),
        "default_s": round(instrumented, 4),
        "overhead_pct": round(100 * overhead, 2),
        "budget_pct": 5.0,
    })
    assert instrumented <= baseline * 1.05 + _SLACK_SECONDS, (
        f"disabled-observability hot path costs {100 * overhead:.1f}% "
        f"(budget 5%)")


def _make_campaign_run(telemetry_factory):
    import io

    from repro.experiments import campaign
    from repro.experiments.runner import ExperimentParams

    params = ExperimentParams(num_cores=1, refs_per_core=2000, scale=0.05,
                              seed=7, max_retries=0, retry_backoff_s=0.0)

    def run():
        campaign.run_all(params, ["gups"], out=io.StringIO(),
                         progress=io.StringIO(),
                         telemetry=telemetry_factory())

    return run


def test_bench_campaign_telemetry_overhead(benchmark, bench_json, tmp_path):
    """Telemetry must ride the campaign for free.

    The null object (the default) gates every hook behind one attribute
    check per *run*; the full hub adds dict updates and one flushed
    write per event.  Both are noise next to a simulation, so even the
    fully-enabled campaign must stay within the 5% budget of the
    disabled one — which bounds the disabled path's own cost far below
    that.
    """
    from repro.obs import NO_TELEMETRY, CampaignTelemetry

    disabled_run = _make_campaign_run(lambda: NO_TELEMETRY)
    # "w" mode truncates, so every round reuses the same stream file.
    enabled_run = _make_campaign_run(lambda: CampaignTelemetry(
        status_path=str(tmp_path / "status.ndjson"),
        export_dir=str(tmp_path)))

    disabled_run()  # shared warm-up
    enabled_run()

    disabled = _best_of(disabled_run)
    enabled = benchmark.pedantic(lambda: _best_of(enabled_run),
                                 rounds=1, iterations=1)
    overhead = enabled / disabled - 1.0
    print(f"\ndisabled {disabled:.3f}s, enabled {enabled:.3f}s, "
          f"overhead {100 * overhead:+.1f}%")
    bench_json("campaign_telemetry_overhead", {
        "workload": "gups",
        "params": {"num_cores": 1, "refs_per_core": 2000,
                   "scale": 0.05, "seed": 7},
        "rounds": _ROUNDS,
        "disabled_s": round(disabled, 4),
        "enabled_s": round(enabled, 4),
        "overhead_pct": round(100 * overhead, 2),
        "budget_pct": 5.0,
    })
    assert enabled <= disabled * 1.05 + _SLACK_SECONDS, (
        f"campaign telemetry costs {100 * overhead:.1f}% (budget 5%)")
