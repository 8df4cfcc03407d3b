"""Trace/counter agreement: a sample=1 trace recomputes the aggregates.

This is the observability layer's correctness contract (and an ISSUE
acceptance criterion): replaying an unsampled JSONL trace must yield the
same counters the :class:`~repro.common.stats.StatRegistry` reports.
"""

from collections import Counter

import pytest

from repro.common.config import SystemConfig
from repro.core.system import Machine
from repro.obs import EventTracer, ListSink, Observability
from repro.obs.replay import load_jsonl, replay_counters
from repro.obs.sinks import JsonlSink
from repro.workloads.suite import get_profile

SCHEMES = ("baseline", "pom", "pom_skewed", "shared_l2", "tsb")


def _traced_run(scheme, warmup=0, benchmark="mcf", scale=0.1):
    profile = get_profile(benchmark)
    workload = profile.build(num_cores=2, refs_per_core=1200,
                             seed=11, scale=scale)
    sink = ListSink()
    obs = Observability(tracer=EventTracer([sink], sample=1))
    machine = Machine(SystemConfig(num_cores=2), scheme=scheme,
                      thp_large_fraction=profile.thp_large_fraction,
                      seed=11, obs=obs)
    result = machine.run(workload.streams, warmup_references=warmup)
    return machine, result, sink.events


class TestReplayAgreement:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_replay_matches_registry(self, scheme):
        machine, result, trace = _traced_run(scheme)
        replayed = replay_counters(trace)
        mmu = machine.stats["mmu"]

        assert replayed["translations"] == result.references
        assert replayed["l2_tlb_misses"] == result.l2_tlb_misses
        assert replayed["penalty_cycles"] == result.penalty_cycles
        assert replayed["page_walks"] == int(mmu["page_walks"])
        assert replayed["page_walk_cycles"] == int(mmu["page_walk_cycles"])

    @pytest.mark.parametrize("scheme", ("pom", "pom_skewed"))
    def test_pom_fetch_sources_match_flow_stats(self, scheme):
        machine, result, trace = _traced_run(scheme)
        assert result.l2_tlb_misses > 0  # the run must exercise the miss path
        replayed = replay_counters(trace)
        flow = machine.stats["pom_flow"]
        for source, count in replayed["pom_fetches"].items():
            assert count == int(flow[f"set_from_{source}"]), source

    @pytest.mark.parametrize("scheme", ("pom", "pom_skewed"))
    def test_dram_events_match_channel_stats(self, scheme):
        machine, _, trace = _traced_run(scheme)
        replayed = replay_counters(trace)
        dram = machine.stats["stacked_dram"]
        assert replayed["dram_accesses"] == int(dram["accesses"])
        outcomes = replayed["dram_row_outcomes"]
        assert outcomes.get("hit", 0) == int(dram["row_hits"])
        assert outcomes.get("miss", 0) == int(dram["row_misses"])
        assert outcomes.get("conflict", 0) == int(dram["row_conflicts"])

    def test_warmup_reset_marker_scopes_the_replay(self):
        machine, result, trace = _traced_run("pom", warmup=400)
        assert any(e["type"] == "marker" and e["name"] == "stats_reset"
                   for e in trace)
        replayed = replay_counters(trace)
        # only post-warmup events count, same as the registry reset
        assert replayed["translations"] == result.references
        assert replayed["l2_tlb_misses"] == result.l2_tlb_misses
        assert replayed["penalty_cycles"] == result.penalty_cycles

    def test_jsonl_file_roundtrip_agrees(self, tmp_path):
        profile = get_profile("gups")
        workload = profile.build(num_cores=1, refs_per_core=600,
                                 seed=4, scale=0.1)
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        obs = Observability(tracer=EventTracer(
            [sink], sample=1, meta={"benchmark": "gups", "scheme": "pom"}))
        machine = Machine(SystemConfig(num_cores=1), scheme="pom",
                          thp_large_fraction=profile.thp_large_fraction,
                          seed=4, obs=obs)
        result = machine.run(workload.streams)
        sink.close()
        replayed = replay_counters(load_jsonl(path))  # validates every event
        assert replayed["translations"] == result.references
        assert replayed["l2_tlb_misses"] == result.l2_tlb_misses
        assert replayed["penalty_cycles"] == result.penalty_cycles


def _probe_counts(trace):
    """``tlb_probe`` events after the last ``stats_reset``, by (level, hit)."""
    start = 1 + max((i for i, e in enumerate(trace)
                     if e["type"] == "marker" and e["name"] == "stats_reset"),
                    default=-1)
    return Counter((e["level"], e["hit"]) for e in trace[start:]
                   if e["type"] == "tlb_probe")


class TestTlbProbeEvents:
    """The front end's probe events agree with the SRAM TLB counters."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_probe_events_match_sram_counters(self, scheme):
        machine, result, trace = _traced_run(scheme, warmup=600,
                                             benchmark="gups", scale=0.3)
        assert result.l2_tlb_misses > 0  # the run must exercise the miss path
        stats = machine.stats
        groups = {"l1": [f"core{c}.l1_tlb_{size}" for c in range(2)
                         for size in ("4k", "2m")]}
        if machine.scheme.shared is None:
            groups["l2"] = [f"core{c}.l2_tlb" for c in range(2)]
        else:
            # The private L2 is the zero-latency shadow: no event.
            groups["shared_l2"] = ["shared_l2_tlb"]
        want = Counter()
        for level, names in groups.items():
            for name in names:
                want[(level, True)] += int(stats[name]["hits"])
                want[(level, False)] += int(stats[name]["misses"])
        assert want[("l1", False)] > 0 and want[("l1", True)] > 0
        assert _probe_counts(trace) == +want


class TestSampledTraces:
    def test_sampling_reduces_events_but_stays_valid(self):
        profile = get_profile("gups")
        workload = profile.build(num_cores=1, refs_per_core=600,
                                 seed=4, scale=0.1)
        sizes = {}
        for sample in (1, 10):
            sink = ListSink()
            tracer = EventTracer([sink], sample=sample)
            machine = Machine(SystemConfig(num_cores=1), scheme="pom",
                              thp_large_fraction=profile.thp_large_fraction,
                              seed=4, obs=Observability(tracer=tracer))
            machine.run(workload.streams)
            sizes[sample] = len(sink.events)
            translations = [e for e in sink.events
                            if e["type"] == "translation"]
            # first of every N translations is sampled
            assert len(translations) == -(-tracer.translations // sample)
        assert sizes[10] < sizes[1] / 5
