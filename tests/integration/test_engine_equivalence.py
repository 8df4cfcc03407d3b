"""Differential test: optimized engine == frozen seed-era reference engine.

The fast-path engine rewrite (packed keys, slot counters, dict-ordering
LRU, batched replay) promises **bit-identical counters**.  This test
holds it to that: for every scheme, a workload replayed through
:mod:`repro.core.refcheck` (the frozen pre-rewrite engine) and through
the optimized :class:`~repro.core.system.Machine` must produce

* identical ``SimulationResult`` scalar fields,
* an identical ``StatRegistry`` snapshot (every group, every counter,
  exact values), and
* identical latency histograms.

This is the contract future optimizations are held to — see the
"Engine performance" section of EXPERIMENTS.md.
"""

import dataclasses

import pytest

from repro.core.batch import HAS_NUMPY
from repro.core.refcheck import ReferenceMachine
from repro.core.system import Machine
from repro.experiments.runner import ExperimentParams
from repro.obs import Observability
from repro.obs.sinks import ListSink
from repro.obs.tracer import EventTracer
from repro.workloads.packed import pack_stream
from repro.workloads.suite import get_profile

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy unavailable (pomtlb[fast] not installed)")

SCHEMES = ("baseline", "pom", "pom_skewed", "shared_l2", "tsb")

#: Small but representative: 2 cores, demand paging, warmup reset,
#: mixed page sizes (gups has a THP fraction), every scheme's miss path
#: exercised thousands of times.
PARAMS = ExperimentParams(num_cores=2, refs_per_core=900, scale=0.1, seed=42)

#: The POM flow's configuration branches (uncached sets, no bypass
#: prediction, next-page prefetch, TLB-aware L2D$/L3D$ victims) on both
#: organisations and two benchmarks.  These cold cases replay at scale
#: 0.3 and compare every counter from the first reference: at PARAMS'
#: scale the warmup covers the whole footprint and leaves no L2 TLB miss
#: to compare.  Prefetch is partitioned-only (``pom_skewed`` rejects
#: it).  The default-config cases of every scheme keep their plain ids.
POM_VARIANTS = (("default", {}), ("uncached", {"cache_tlb_entries": False}),
                ("nobypass", {"bypass_enabled": False}),
                ("prefetch", {"tlb_prefetch": True}),
                ("priority", {"tlb_priority": True}))
CASES = [pytest.param(scheme, "gups", PARAMS, True, id=scheme)
         for scheme in SCHEMES]
COLD_CASES = [pytest.param(scheme, name,
                           dataclasses.replace(PARAMS, scale=0.3,
                                               **overrides),
                           False, id=f"{scheme}-{name}-{label}")
              for scheme in ("pom", "pom_skewed")
              for name in ("gups", "mcf")
              for label, overrides in POM_VARIANTS
              if not (scheme == "pom_skewed" and label == "prefetch")]
#: The other schemes' miss paths (walk, shared array, TSB probes) cold.
COLD_CASES += [pytest.param(scheme, name, dataclasses.replace(PARAMS,
                                                              scale=0.3),
                            False, id=f"{scheme}-{name}-default")
               for scheme in ("baseline", "shared_l2", "tsb")
               for name in ("gups", "mcf")]
CASES += COLD_CASES

RESULT_FIELDS = ("scheme", "references", "instructions", "l2_tlb_misses",
                 "penalty_cycles", "translation_cycles", "data_cycles",
                 "page_walks")


def _workload(benchmark="gups", params=PARAMS):
    profile = get_profile(benchmark)
    return profile, profile.build(num_cores=params.num_cores,
                                  refs_per_core=params.refs_per_core,
                                  seed=params.seed, scale=params.scale)


def _warmup(workload, warm=True):
    return (workload.warmup_by_core or workload.warmup_references
            if warm else 0)


def _run_reference(scheme, profile, workload, params=PARAMS, warm=True):
    machine = ReferenceMachine(params.system_config(), scheme=scheme,
                               thp_large_fraction=profile.thp_large_fraction,
                               seed=params.seed,
                               tlb_priority=params.tlb_priority)
    return machine.run(workload.streams,
                       warmup_references=_warmup(workload, warm))


def _run_optimized(scheme, profile, workload, params=PARAMS, obs=None,
                   warm=True):
    machine = Machine(params.system_config(), scheme=scheme,
                      thp_large_fraction=profile.thp_large_fraction,
                      seed=params.seed, obs=obs,
                      tlb_priority=params.tlb_priority)
    return machine.run(workload.streams,
                       warmup_references=_warmup(workload, warm))


def _assert_equivalent(reference, optimized):
    for field in RESULT_FIELDS:
        assert getattr(optimized, field) == getattr(reference, field), (
            f"SimulationResult.{field}: optimized "
            f"{getattr(optimized, field)!r} != reference "
            f"{getattr(reference, field)!r}")
    ref_stats = reference.stats.as_nested_dict()
    new_stats = optimized.stats.as_nested_dict()
    assert sorted(new_stats) == sorted(ref_stats), (
        "stat group sets differ: only-new="
        f"{sorted(set(new_stats) - set(ref_stats))} only-ref="
        f"{sorted(set(ref_stats) - set(new_stats))}")
    for group, counters in ref_stats.items():
        assert new_stats[group] == counters, (
            f"group {group!r}: optimized {new_stats[group]!r} "
            f"!= reference {counters!r}")
    ref_hists = {name: h.as_dict() for name, h in reference.histograms.items()}
    new_hists = {name: h.as_dict() for name, h in optimized.histograms.items()}
    assert new_hists == ref_hists


@pytest.mark.parametrize("scheme, name, params, warm", CASES)
def test_counters_bit_identical(scheme, name, params, warm):
    profile, workload = _workload(name, params)
    reference = _run_reference(scheme, profile, workload, params, warm)
    optimized = _run_optimized(scheme, profile, workload, params, warm=warm)
    _assert_equivalent(reference, optimized)
    if not warm:
        # A cold case exists to compare the miss path: it must reach it.
        assert reference.l2_tlb_misses > 0


@pytest.mark.parametrize("scheme", ("pom", "baseline"))
def test_counters_bit_identical_multithreaded(scheme):
    """Shared address space + per-core warmup counts (mapping form)."""
    profile, workload = _workload(benchmark="graph500")
    reference = _run_reference(scheme, profile, workload)
    optimized = _run_optimized(scheme, profile, workload)
    _assert_equivalent(reference, optimized)


def test_counters_identical_with_tracing_enabled():
    """The traced slow path must count exactly like the fast path."""
    profile, workload = _workload()
    reference = _run_reference("pom", profile, workload)
    sink = ListSink()
    obs = Observability(tracer=EventTracer(sinks=[sink]))
    optimized = _run_optimized("pom", profile, workload, obs=obs)
    _assert_equivalent(reference, optimized)
    assert sink.events, "tracer saw no events despite being enabled"


def test_fast_path_equals_traced_path_counters():
    """Tracing on vs off may not change a single counter."""
    profile, workload = _workload()
    plain = _run_optimized("pom", profile, workload)
    traced = _run_optimized(
        "pom", profile, workload,
        obs=Observability(tracer=EventTracer(sinks=[ListSink()])))
    assert (traced.stats.as_nested_dict()
            == plain.stats.as_nested_dict())
    for field in RESULT_FIELDS:
        assert getattr(traced, field) == getattr(plain, field)


# -- vectorized batch engine (repro.core.batch) ----------------------------


def _batch_machine(scheme, profile, params=PARAMS, **kwargs):
    return Machine(params.system_config(), scheme=scheme,
                   thp_large_fraction=profile.thp_large_fraction,
                   seed=params.seed, batch=True,
                   tlb_priority=params.tlb_priority, **kwargs)


def _packed(workload):
    return [pack_stream(s) for s in workload.streams]


@needs_numpy
@pytest.mark.parametrize("scheme, name, params, warm", CASES)
def test_batch_engine_bit_identical(scheme, name, params, warm):
    """Batch replay == frozen reference, every counter, every scheme.

    The batch engine declines ``tlb_priority``; those cases check that
    the fallback to the scalar loop still matches.
    """
    profile, workload = _workload(name, params)
    reference = _run_reference(scheme, profile, workload, params, warm)
    machine = _batch_machine(scheme, profile, params)
    batched = machine.run(_packed(workload),
                          warmup_references=_warmup(workload, warm))
    expected_mode = "scalar" if params.tlb_priority else "batch"
    assert machine.last_replay_mode == expected_mode, (
        machine.batch_fallback_reason)
    _assert_equivalent(reference, batched)


@needs_numpy
@pytest.mark.parametrize("scheme", ("pom", "baseline"))
def test_batch_engine_bit_identical_multithreaded(scheme):
    """Shared address space, same-core stream pairs, per-core warmup."""
    profile, workload = _workload(benchmark="graph500")
    reference = _run_reference(scheme, profile, workload)
    machine = _batch_machine(scheme, profile)
    warm = workload.warmup_by_core or workload.warmup_references
    batched = machine.run(_packed(workload), warmup_references=warm)
    assert machine.last_replay_mode == "batch", machine.batch_fallback_reason
    _assert_equivalent(reference, batched)


@needs_numpy
@pytest.mark.parametrize("scheme", SCHEMES)
def test_batch_engine_warm_replay_identical(scheme):
    """Second run on the same machine (warm replay) stays bit-identical.

    Warm replay takes the pre-created-stream-state fast path in the
    batch engine (the debut slice vectorizes), so it needs its own
    equivalence check against a twice-run reference machine.
    """
    profile, workload = _workload()
    params = PARAMS
    warm = workload.warmup_by_core or workload.warmup_references
    ref = ReferenceMachine(params.system_config(), scheme=scheme,
                           thp_large_fraction=profile.thp_large_fraction,
                           seed=params.seed)
    ref.run(workload.streams, warmup_references=warm)
    reference = ref.run(workload.streams, warmup_references=warm)
    machine = _batch_machine(scheme, profile)
    packed = _packed(workload)
    machine.run(packed, warmup_references=warm)
    batched = machine.run(packed, warmup_references=warm)
    assert machine.last_replay_mode == "batch", machine.batch_fallback_reason
    _assert_equivalent(reference, batched)


@needs_numpy
def test_batch_requested_verify_armed_still_identical():
    """`--verify` + batch: the verifier forces the scalar loop, and the

    verified run must still match an unverified batch run bit for bit
    (all checkers armed; the verifier is an execution knob).
    """
    profile, workload = _workload()
    warm = workload.warmup_by_core or workload.warmup_references
    machine = _batch_machine("pom", profile)
    batched = machine.run(_packed(workload), warmup_references=warm)
    assert machine.last_replay_mode == "batch"
    verified_machine = _batch_machine("pom", profile, verify=True)
    verified = verified_machine.run(_packed(workload),
                                    warmup_references=warm)
    assert verified_machine.last_replay_mode == "scalar"
    assert verified_machine.batch_fallback_reason == (
        "consistency verifier armed")
    _assert_equivalent(batched, verified)
