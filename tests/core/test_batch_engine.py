"""Edge cases of the vectorized batch-replay engine (repro.core.batch).

The integration suite (tests/integration/test_engine_equivalence.py)
holds the batch engine bit-identical to the frozen reference at
workload scale.  This module aims at the seams instead: slice
boundaries, warmup resets landing mid-slice, invalidations between
runs, degenerate streams, the fallback ladder (numpy absent, explicit
disable), and the lexsort-vs-heap-merge order
equivalence the whole design rests on.

Everything here compares against the scalar ``Machine`` loop, which is
the semantics of record (itself pinned to the golden counter fixtures
of ``tests/golden/`` by the integration suite).
"""

import pytest

import repro.core.batch as batch_mod
from repro.core.batch import HAS_NUMPY, resolve_batch_flag
from repro.core.system import Machine
from repro.experiments.runner import ExperimentParams
from repro.workloads.packed import pack_stream
from repro.workloads.suite import get_profile
from repro.workloads.trace import CoreStream, MemoryReference, interleave

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy unavailable (pomtlb[fast] not installed)")

PARAMS = ExperimentParams(num_cores=2, refs_per_core=700, scale=0.1, seed=11)

RESULT_FIELDS = ("scheme", "references", "instructions", "l2_tlb_misses",
                 "penalty_cycles", "translation_cycles", "data_cycles",
                 "page_walks")


def _workload(params=PARAMS, benchmark="gups"):
    profile = get_profile(benchmark)
    workload = profile.build(num_cores=params.num_cores,
                             refs_per_core=params.refs_per_core,
                             seed=params.seed, scale=params.scale)
    return profile, workload


def _machine(profile, scheme="pom", params=PARAMS, batch=True, **kwargs):
    return Machine(params.system_config(), scheme=scheme,
                   thp_large_fraction=profile.thp_large_fraction,
                   seed=params.seed, batch=batch, **kwargs)


def _assert_same(scalar, batched):
    for field in RESULT_FIELDS:
        assert getattr(batched, field) == getattr(scalar, field), field
    assert (batched.stats.as_nested_dict()
            == scalar.stats.as_nested_dict())


# -- slice boundaries ------------------------------------------------------


@needs_numpy
def test_warmup_reset_mid_slice(monkeypatch):
    """A warmup boundary inside a slice must reset tallies exactly.

    Shrinking the slice makes every boundary interior: warmup ends
    mid-slice, streams debut mid-slice, and the run end truncates a
    slice, all within a workload that stays test-sized.
    """
    monkeypatch.setattr(batch_mod, "_SLICE", 64)
    profile, workload = _workload()
    warm = workload.warmup_by_core or workload.warmup_references
    assert warm, "workload must actually exercise the warmup reset"
    scalar = _machine(profile, batch=False).run(
        workload.streams, warmup_references=warm)
    machine = _machine(profile)
    batched = machine.run([pack_stream(s) for s in workload.streams],
                          warmup_references=warm)
    assert machine.last_replay_mode == "batch"
    _assert_same(scalar, batched)


@needs_numpy
def test_max_references_truncates_identically(monkeypatch):
    monkeypatch.setattr(batch_mod, "_SLICE", 50)
    profile, workload = _workload()
    # A cap that lands mid-slice and mid-stream.
    cap = sum(len(s) for s in workload.streams) // 3 + 7
    scalar = _machine(profile, batch=False).run(
        workload.streams, max_references=cap)
    machine = _machine(profile)
    batched = machine.run([pack_stream(s) for s in workload.streams],
                          max_references=cap)
    assert machine.last_replay_mode == "batch"
    assert batched.references == scalar.references
    _assert_same(scalar, batched)


# -- invalidations between runs -------------------------------------------


@needs_numpy
@pytest.mark.parametrize("scheme", ("pom", "tsb", "shared_l2"))
def test_shootdown_between_runs(scheme):
    """TLB shootdown state must replay identically on the next run."""
    profile, workload = _workload()
    warm = workload.warmup_by_core or workload.warmup_references
    packed = [pack_stream(s) for s in workload.streams]
    target = workload.streams[0]
    vaddr = target.references[0].vaddr

    scalar_m = _machine(profile, scheme=scheme, batch=False)
    scalar_m.run(workload.streams, warmup_references=warm)
    scalar_m.shootdown(target.vm_id, target.asid, vaddr)
    scalar = scalar_m.run(workload.streams, warmup_references=warm)

    batch_m = _machine(profile, scheme=scheme)
    batch_m.run(packed, warmup_references=warm)
    batch_m.shootdown(target.vm_id, target.asid, vaddr)
    batched = batch_m.run(packed, warmup_references=warm)
    assert batch_m.last_replay_mode == "batch"
    _assert_same(scalar, batched)


@needs_numpy
def test_invalidate_vm_between_runs():
    """A whole-VM invalidation (teardown) between runs stays identical."""
    profile, workload = _workload()
    warm = workload.warmup_by_core or workload.warmup_references
    packed = [pack_stream(s) for s in workload.streams]
    vm_id = workload.streams[0].vm_id

    scalar_m = _machine(profile, batch=False)
    scalar_m.run(workload.streams, warmup_references=warm)
    dropped_scalar = scalar_m.invalidate_vm(vm_id)
    scalar = scalar_m.run(workload.streams, warmup_references=warm)

    batch_m = _machine(profile)
    batch_m.run(packed, warmup_references=warm)
    dropped_batch = batch_m.invalidate_vm(vm_id)
    batched = batch_m.run(packed, warmup_references=warm)
    assert batch_m.last_replay_mode == "batch"
    assert dropped_batch == dropped_scalar
    _assert_same(scalar, batched)


# -- degenerate streams ----------------------------------------------------


def _tiny_stream(core=0, vm_id=1, asid=1, refs=()):
    return CoreStream(core=core, vm_id=vm_id, asid=asid,
                      references=[MemoryReference(*r) for r in refs])


@needs_numpy
def test_single_reference_stream():
    profile, _ = _workload()
    streams = [_tiny_stream(refs=[(0, 0x1234, False)])]
    scalar = _machine(profile, batch=False).run(streams)
    machine = _machine(profile)
    batched = machine.run([pack_stream(s) for s in streams])
    assert machine.last_replay_mode == "batch"
    assert batched.references == 1
    _assert_same(scalar, batched)


@needs_numpy
def test_empty_streams_fall_back_to_scalar():
    """All-empty input declines cleanly (and still counts nothing)."""
    profile, _ = _workload()
    machine = _machine(profile)
    result = machine.run([pack_stream(_tiny_stream())])
    assert machine.last_replay_mode == "scalar"
    assert machine.batch_fallback_reason == "no non-empty streams"
    assert result.references == 0


@needs_numpy
def test_empty_stream_beside_live_stream():
    profile, _ = _workload()
    streams = [_tiny_stream(core=0),
               _tiny_stream(core=1, refs=[(0, 0x2000, False),
                                          (3, 0x4000, True)])]
    scalar = _machine(profile, batch=False).run(streams)
    machine = _machine(profile)
    batched = machine.run([pack_stream(s) for s in streams])
    assert machine.last_replay_mode == "batch"
    _assert_same(scalar, batched)


# -- fallback ladder -------------------------------------------------------


def test_record_built_streams_replay_batched():
    """Streams built from MemoryReference records need no packing step:
    the batch engine replays them, equal to the scalar loop."""
    profile, workload = _workload()
    streams = [CoreStream(s.core, s.vm_id, s.asid, list(s.references))
               for s in workload.streams]
    machine = _machine(profile)
    result = machine.run(streams)
    if HAS_NUMPY:
        assert machine.last_replay_mode == "batch"
    reference = _machine(profile, batch=False).run(streams)
    _assert_same(reference, result)


def test_batch_disabled_by_flag():
    profile, workload = _workload()
    machine = _machine(profile, batch=False)
    machine.run([pack_stream(s) for s in workload.streams])
    assert machine.last_replay_mode == "scalar"
    assert machine.batch_fallback_reason == "batching disabled"


def test_numpy_absent_falls_back(monkeypatch):
    """Simulate a numpy-less install: decline reason names the extra."""
    monkeypatch.setattr(batch_mod, "_np", None)
    profile, workload = _workload()
    machine = _machine(profile)
    result = machine.run([pack_stream(s) for s in workload.streams])
    assert machine.last_replay_mode == "scalar"
    assert "numpy unavailable" in machine.batch_fallback_reason
    assert "pomtlb[fast]" in machine.batch_fallback_reason
    reference = _machine(profile, batch=False).run(
        [pack_stream(s) for s in workload.streams])
    _assert_same(reference, result)


def test_resolve_batch_flag(monkeypatch):
    monkeypatch.delenv("POMTLB_BATCH", raising=False)
    assert resolve_batch_flag() is True
    assert resolve_batch_flag(False) is False
    for raw, expected in (("0", False), ("false", False), ("no", False),
                          ("off", False), ("", False), ("1", True),
                          ("true", True), ("yes", True)):
        monkeypatch.setenv("POMTLB_BATCH", raw)
        assert resolve_batch_flag() is expected, raw
    monkeypatch.setenv("POMTLB_BATCH", "0")
    assert resolve_batch_flag(True) is True  # explicit flag beats env


# -- merge-order property --------------------------------------------------


@needs_numpy
def test_lexsort_order_matches_heap_merge():
    """np.lexsort((source, core, icount)) == the scalar k-way merge.

    The batch engine's global replay order is a stable lexsort; the
    replay order's specification is interleave's heap merge.  Build streams
    with heavy icount ties across cores and within a core (two streams
    sharing core 1) and require the flattened orders to agree exactly.
    """
    import numpy as np

    streams = [
        _tiny_stream(core=0, asid=1,
                     refs=[(0, 0x1000, False), (5, 0x2000, False),
                           (5, 0x3000, False), (9, 0x4000, False)]),
        _tiny_stream(core=1, asid=2,
                     refs=[(0, 0x5000, False), (5, 0x6000, False),
                           (7, 0x7000, False)]),
        _tiny_stream(core=1, asid=3,
                     refs=[(5, 0x8000, False), (5, 0x9000, False),
                           (9, 0xA000, False)]),
    ]
    merged = [(ref.icount, stream.core, ref.vaddr)
              for stream, ref in interleave(streams)]

    ic = np.concatenate([np.array([r.icount for r in s.references],
                                  dtype=np.uint64) for s in streams])
    cores = np.concatenate([np.full(len(s), s.core, dtype=np.int16)
                            for s in streams])
    src = np.concatenate([np.full(len(s), i, dtype=np.int16)
                          for i, s in enumerate(streams)])
    va = np.concatenate([np.array([r.vaddr for r in s.references],
                                  dtype=np.uint64) for s in streams])
    order = np.lexsort((src, cores, ic))
    lexsorted = [(int(ic[i]), int(cores[i]), int(va[i])) for i in order]
    assert lexsorted == merged


# -- mid-run lifecycle events ----------------------------------------------
#
# The batch engine replays whole runs with no per-reference hook points,
# so a run with scheduled mid-run events (shootdown storms, VM
# teardowns) cannot batch soundly.  The contract: either the engine
# would replay them bit-identically, or it declines with a recorded
# ``batch_fallback_reason`` — never a silent divergence.


def _storm_events(workload):
    from repro.workloads.lifecycle import LifecycleEvent

    # Past the warmup prologue, so the fired shootdowns survive the
    # warmup-boundary stats reset and are visible in the results.
    warmup_total = sum(workload.warmup_by_core.values()) or \
        workload.warmup_references
    target = workload.streams[0]
    return [LifecycleEvent(position=warmup_total + 50, kind="shootdown",
                           vm_id=target.vm_id, asid=target.asid,
                           vaddr=target.references[-100].vaddr),
            LifecycleEvent(position=warmup_total + 200, kind="shootdown",
                           vm_id=target.vm_id, asid=target.asid,
                           vaddr=target.references[-50].vaddr)]


def test_events_force_scalar_with_recorded_reason():
    profile, workload = _workload()
    warm = workload.warmup_by_core or workload.warmup_references
    events = _storm_events(workload)

    batch_m = _machine(profile)
    batched = batch_m.run(workload.streams, warmup_references=warm,
                          events=events)
    assert batch_m.last_replay_mode == "scalar"
    assert batch_m.batch_fallback_reason == (
        "mid-run lifecycle events scheduled")

    scalar_m = _machine(profile, batch=False)
    scalar = scalar_m.run(workload.streams, warmup_references=warm,
                          events=events)
    _assert_same(scalar, batched)
    assert (batch_m.stats["mmu"]["shootdowns"]
            == scalar_m.stats["mmu"]["shootdowns"] == 2)


@needs_numpy
def test_event_free_run_batches_after_declined_run():
    """The decline is per run: the next event-free run batches again."""
    profile, workload = _workload()
    warm = workload.warmup_by_core or workload.warmup_references
    packed = [pack_stream(s) for s in workload.streams]

    machine = _machine(profile)
    machine.run(packed, warmup_references=warm,
                events=_storm_events(workload))
    assert machine.last_replay_mode == "scalar"
    machine.run(packed, warmup_references=warm)
    assert machine.last_replay_mode == "batch"


def test_destroy_vm_event_replays_identically():
    """A mid-run teardown produces the same results however executed."""
    from repro.workloads.lifecycle import LifecycleEvent

    profile, workload = _workload()
    warm = workload.warmup_by_core or workload.warmup_references
    vm_id = workload.streams[0].vm_id
    events = [LifecycleEvent(position=300, kind="destroy_vm", vm_id=vm_id)]

    scalar_m = _machine(profile, batch=False)
    scalar = scalar_m.run(workload.streams, warmup_references=warm,
                          events=events)
    batch_m = _machine(profile)
    batched = batch_m.run(workload.streams, warmup_references=warm,
                          events=events)
    assert batch_m.last_replay_mode == "scalar"
    _assert_same(scalar, batched)
