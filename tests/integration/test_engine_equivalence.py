"""Both replay engines reproduce the recorded counters bit for bit.

Every case replays a workload through :class:`~repro.core.system.Machine`
and compares, with the golden fixture recorded for it under
``tests/golden/``:

* every ``SimulationResult`` scalar field,
* the whole ``StatRegistry`` snapshot (every group, every counter), and
* every latency histogram.

The scalar loop and the vectorized batch engine are held to the same
entries.  The cases cover every scheme warm and cold, the POM flow's
configuration branches, a multithreaded benchmark, a warm replay, a
traced run, the lifecycle studies (boot/teardown churn, migration,
shootdown storms) and the CI audit's configuration, all verifier-armed
where a run would be.  To re-record a family, delete its file (see
:mod:`tests.golden`).  This is the contract future optimizations are
held to — see the "Engine performance" section of EXPERIMENTS.md.
"""

import dataclasses

import pytest

from repro.common.addr import KiB
from repro.common.config import CacheConfig
from repro.core.batch import HAS_NUMPY
from repro.core.system import Machine
from repro.experiments.lifecycle import ALL_SCHEMES, _run_scenario
from repro.experiments.runner import ExperimentParams
from repro.obs import Observability
from repro.obs.sinks import ListSink
from repro.obs.tracer import EventTracer
from repro.verify.differential import audit_benchmark
from repro.workloads.lifecycle import (build_churn, build_migration,
                                       build_shootdown_storm)
from repro.workloads.packed import pack_stream
from repro.workloads.suite import get_profile
from tests import golden

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy unavailable (pomtlb[fast] not installed)")

SCHEMES = ALL_SCHEMES

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
CASES = [pytest.param(scheme, scheme, "gups", PARAMS, True, {}, id=scheme)
         for scheme in SCHEMES]
COLD_CASES = [pytest.param(case, scheme, name,
                           dataclasses.replace(PARAMS, scale=0.3,
                                               **overrides),
                           False, {}, id=case)
              for scheme in ("pom", "pom_skewed")
              for name in ("gups", "mcf")
              for label, overrides in POM_VARIANTS
              if not (scheme == "pom_skewed" and label == "prefetch")
              for case in [f"{scheme}-{name}-{label}"]]
#: The other schemes' miss paths (walk, shared array, TSB probes) cold.
COLD_CASES += [pytest.param(case, scheme, name,
                            dataclasses.replace(PARAMS, scale=0.3),
                            False, {}, id=case)
               for scheme in ("baseline", "shared_l2", "tsb")
               for name in ("gups", "mcf")
               for case in [f"{scheme}-{name}-default"]]
#: POM-TLB set lines crowd the sets of a 4 KiB L2D$ and a 16 KiB L3D$,
#: so a walk's PTE reads can evict the set line it is about to rewrite
#: and the refill lands in a full set: the only runs where the refill's
#: TLB-aware victim differs from the LRU one.  graph500's cores share
#: one address space, so a line the L3D$ refill keeps is hit again.
TINY_CACHES = {
    "l2d": CacheConfig(name="l2d", size_bytes=4 * KiB, ways=2,
                       latency_cycles=12),
    "l3d": CacheConfig(name="l3d", size_bytes=16 * KiB, ways=2,
                       latency_cycles=42)}
COLD_CASES += [pytest.param(case, scheme, name,
                            dataclasses.replace(PARAMS, scale=0.3,
                                                tlb_priority=True),
                            False, TINY_CACHES, id=case)
               for scheme, name in (("pom", "graph500"),
                                    ("pom_skewed", "gups"))
               for case in [f"{scheme}-{name}-priority-tinycache"]]
CASES += COLD_CASES
#: Every scheme warm at the cold cases' scale, where the measured phase
#: still misses: the miss-path counters after the warm-up stats reset.
CASES += [pytest.param(case, scheme, "gups",
                       dataclasses.replace(PARAMS, scale=0.3), True, {},
                       id=case)
          for scheme in SCHEMES for case in [f"{scheme}-gups-scale0.3"]]

#: The lifecycle studies at small params, verifier armed.  Churn and
#: migration are first-touch heavy and pin teardown, reclamation and
#: re-boot; the shootdown storms run where the POM-TLB and the TSB serve
#: most re-misses, so a shot-down page left in either shows.  Two VMs
#: for migration: Shared_L2 needs a power-of-two core count.
LIFECYCLE_PARAMS = ExperimentParams(seed=42, verify=True)
LIFECYCLE_WORKLOADS = {
    "churn": lambda: build_churn(("gups", "mcf"), generations=2,
                                 refs_per_core=300, seed=42, scale=0.1),
    "migration": lambda: build_migration(("mcf", "gups"), refs_per_core=300,
                                         seed=42, scale=0.1),
    **{f"shootdown-{rate:g}": (
        lambda rate=rate: build_shootdown_storm(
            "gups", num_cores=2, refs_per_core=300, seed=42, scale=0.2,
            per_1k_refs=rate))
       for rate in (0.0, 20.0)},
}

#: CI's differential audit step: gups/gcc/mcf, every scheme, verifier armed.
AUDIT_PARAMS = ExperimentParams(num_cores=2, refs_per_core=1000, scale=0.05,
                                seed=42)


def _workload(benchmark="gups", params=PARAMS):
    profile = get_profile(benchmark)
    return profile, profile.build(num_cores=params.num_cores,
                                  refs_per_core=params.refs_per_core,
                                  seed=params.seed, scale=params.scale)


def _warmup(workload, warm=True):
    return (workload.warmup_by_core or workload.warmup_references
            if warm else 0)


def _machine(scheme, profile, params=PARAMS, caches=None, **kwargs):
    return Machine(params.system_config().copy_with(**caches or {}),
                   scheme=scheme,
                   thp_large_fraction=profile.thp_large_fraction,
                   seed=params.seed, tlb_priority=params.tlb_priority,
                   **kwargs)


def _family(warm):
    return "warm" if warm else "cold"


@pytest.mark.parametrize("case, scheme, name, params, warm, caches", CASES)
def test_counters_bit_identical(case, scheme, name, params, warm, caches):
    profile, workload = _workload(name, params)
    result = _machine(scheme, profile, params, caches).run(
        workload.streams, warmup_references=_warmup(workload, warm))
    golden.check(_family(warm), {case: result})
    if params.scale > PARAMS.scale:
        # Cold cases and warm cases at this scale exist to compare the
        # miss path: each must reach it.
        assert result.l2_tlb_misses > 0


def test_walks_from_two_pml4_slots_bit_identical():
    """Every other reference moves to PML4 slot 8, so the walks read two
    root entries of one table: the suite's workloads never leave slot 0,
    where no level-4 index bit is set."""
    params = dataclasses.replace(PARAMS, scale=0.3)
    profile, workload = _workload("gups", params)
    for stream in workload.streams:
        vaddrs = stream.vaddrs
        for index in range(1, len(vaddrs), 2):
            vaddrs[index] |= 8 << 39
    result = _machine("baseline", profile, params).run(workload.streams)
    golden.check("cold", {"baseline-gups-two-pml4-slots": result})
    assert result.l2_tlb_misses > 0


@pytest.mark.parametrize("scheme", ("pom", "baseline"))
def test_counters_bit_identical_multithreaded(scheme):
    """Shared address space + per-core warmup counts (mapping form)."""
    profile, workload = _workload(benchmark="graph500")
    result = _machine(scheme, profile).run(
        workload.streams, warmup_references=_warmup(workload))
    golden.check("multithreaded", {scheme: result})


def test_counters_identical_with_tracing_enabled():
    """The traced path counts exactly like the recorded untraced run."""
    profile, workload = _workload()
    sink = ListSink()
    obs = Observability(tracer=EventTracer(sinks=[sink]))
    traced = _machine("pom", profile, obs=obs).run(
        workload.streams, warmup_references=_warmup(workload))
    golden.check("warm", {"pom": traced})
    assert sink.events, "tracer saw no events despite being enabled"


def test_fast_path_equals_traced_path_counters():
    """Tracing on vs off may not change a single counter."""
    profile, workload = _workload()
    warm = _warmup(workload)
    plain = _machine("pom", profile).run(workload.streams,
                                         warmup_references=warm)
    traced = _machine(
        "pom", profile,
        obs=Observability(tracer=EventTracer(sinks=[ListSink()]))).run(
            workload.streams, warmup_references=warm)
    assert (traced.stats.as_nested_dict()
            == plain.stats.as_nested_dict())
    for field in golden.RESULT_FIELDS:
        assert getattr(traced, field) == getattr(plain, field)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_warm_replay_bit_identical(scheme):
    """A second run on the same machine starts from the first's state."""
    profile, workload = _workload()
    machine = _machine(scheme, profile)
    machine.run(workload.streams, warmup_references=_warmup(workload))
    result = machine.run(workload.streams,
                         warmup_references=_warmup(workload))
    golden.check("warm_replay", {scheme: result})


@pytest.mark.parametrize("study", LIFECYCLE_WORKLOADS)
def test_lifecycle_counters_bit_identical(study):
    """Mid-run boots, teardowns and shootdowns, every scheme, verified."""
    workload = LIFECYCLE_WORKLOADS[study]()
    results = {}
    for scheme in SCHEMES:
        result, machine = _run_scenario(workload, scheme, LIFECYCLE_PARAMS)
        results[f"{study}-{scheme}"] = result
        assert result.l2_tlb_misses > 0
        if study == "churn":
            # Every guest was torn down: all its frames came back.
            assert machine.host.memory.bytes_allocated == 0
    golden.check("lifecycle", results)


@pytest.mark.parametrize("name", ("gups", "gcc", "mcf"))
def test_audit_configuration_counters(name):
    """The differential audit passes, and its runs keep their counters."""
    report = audit_benchmark(name, AUDIT_PARAMS, shrink=False)
    golden.check("audit", {f"{name}-{scheme}": result
                           for scheme, result in report.results.items()})


# -- vectorized batch engine (repro.core.batch) ----------------------------


def _batch_machine(scheme, profile, params=PARAMS, caches=None, **kwargs):
    return _machine(scheme, profile, params, caches, batch=True, **kwargs)


def _packed(workload):
    return [pack_stream(s) for s in workload.streams]


@needs_numpy
@pytest.mark.parametrize("case, scheme, name, params, warm, caches", CASES)
def test_batch_engine_bit_identical(case, scheme, name, params, warm,
                                    caches):
    """Batch replay reproduces the scalar loop's recorded counters.

    The batch engine declines ``tlb_priority``; those cases check that
    the fallback to the scalar loop still matches.
    """
    profile, workload = _workload(name, params)
    machine = _batch_machine(scheme, profile, params, caches)
    batched = machine.run(_packed(workload),
                          warmup_references=_warmup(workload, warm))
    expected_mode = "scalar" if params.tlb_priority else "batch"
    assert machine.last_replay_mode == expected_mode, (
        machine.batch_fallback_reason)
    golden.check(_family(warm), {case: batched})


@needs_numpy
@pytest.mark.parametrize("scheme", ("pom", "baseline"))
def test_batch_engine_bit_identical_multithreaded(scheme):
    """Shared address space, same-core stream pairs, per-core warmup."""
    profile, workload = _workload(benchmark="graph500")
    machine = _batch_machine(scheme, profile)
    batched = machine.run(_packed(workload),
                          warmup_references=_warmup(workload))
    assert machine.last_replay_mode == "batch", machine.batch_fallback_reason
    golden.check("multithreaded", {scheme: batched})


@needs_numpy
@pytest.mark.parametrize("scheme", SCHEMES)
def test_batch_engine_warm_replay_identical(scheme):
    """Second run on the same machine (warm replay) stays bit-identical.

    Warm replay takes the pre-created-stream-state fast path in the
    batch engine (the debut slice vectorizes), so it needs its own
    check against the scalar loop's recorded warm replay.
    """
    profile, workload = _workload()
    warm = _warmup(workload)
    machine = _batch_machine(scheme, profile)
    packed = _packed(workload)
    machine.run(packed, warmup_references=warm)
    batched = machine.run(packed, warmup_references=warm)
    assert machine.last_replay_mode == "batch", machine.batch_fallback_reason
    golden.check("warm_replay", {scheme: batched})


@needs_numpy
def test_batch_requested_verify_armed_still_identical():
    """`--verify` + batch: the verifier forces the scalar loop, and the

    verified run must still match an unverified batch run bit for bit
    (all checkers armed; the verifier is an execution knob).
    """
    profile, workload = _workload()
    warm = _warmup(workload)
    machine = _batch_machine("pom", profile)
    batched = machine.run(_packed(workload), warmup_references=warm)
    assert machine.last_replay_mode == "batch"
    verified_machine = _batch_machine("pom", profile, verify=True)
    verified = verified_machine.run(_packed(workload),
                                    warmup_references=warm)
    assert verified_machine.last_replay_mode == "scalar"
    assert verified_machine.batch_fallback_reason == (
        "consistency verifier armed")
    assert golden.snapshot(verified) == golden.snapshot(batched)
