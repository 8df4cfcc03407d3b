"""Observability must never change what the simulator computes.

ISSUE acceptance criterion: running with tracing disabled produces a
``SimulationResult`` bit-identical to the seed simulator's — and running
with tracing *enabled* must not change the simulated outcome either,
only add data on the side.
"""

from repro.common.config import SystemConfig
from repro.core.system import Machine
from repro.obs import EventTracer, ListSink, Observability
from repro.workloads.suite import get_profile

SCHEMES = ("baseline", "pom", "pom_skewed", "shared_l2", "tsb")


def _run(scheme, obs):
    profile = get_profile("astar")
    workload = profile.build(num_cores=2, refs_per_core=700,
                             seed=6, scale=0.05)
    machine = Machine(SystemConfig(num_cores=2), scheme=scheme,
                      thp_large_fraction=profile.thp_large_fraction,
                      seed=6, obs=obs)
    result = machine.run(workload.streams,
                         warmup_references=workload.warmup_references)
    return machine.stats.as_nested_dict(), result


class TestObservabilityIsPure:
    def test_disabled_default_and_traced_runs_agree(self):
        for scheme in SCHEMES:
            outcomes = []
            for obs in (Observability(histograms=False),        # seed hot path
                        None,                             # machine default
                        Observability(
                            tracer=EventTracer([ListSink()], sample=1),
                            window=100)):
                stats, result = _run(scheme, obs)
                outcomes.append((stats, result.references,
                                 result.l2_tlb_misses, result.penalty_cycles,
                                 result.page_walks, result.instructions))
            assert outcomes[0] == outcomes[1] == outcomes[2], scheme

    def test_default_machine_has_histograms_but_no_tracer(self):
        stats, result = _run("pom", None)
        assert result.histograms is not None
        assert (result.histograms["translation_cycles"].count
                == result.references)
        assert result.windows is None

    def test_disabled_machine_attaches_nothing(self):
        stats, result = _run("pom", Observability(histograms=False))
        assert result.histograms is None
        zeros = result.latency_percentiles("translation_cycles")
        assert zeros == {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}

    def test_histogram_totals_match_counters(self):
        _, result = _run("pom", None)
        penalty = result.histograms["penalty_cycles"]
        assert penalty.total == result.penalty_cycles
        assert penalty.count == result.l2_tlb_misses
