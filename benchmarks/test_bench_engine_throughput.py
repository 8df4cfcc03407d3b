"""Throughput benchmark: batch + scalar engines vs the frozen reference.

Three engines replay the same workload on the same inputs in the same
process:

* **reference** — :mod:`repro.core.refcheck`, the verbatim frozen copy
  of the seed-era hot loops (the machine-independent yardstick),
* **scalar** — the optimized per-reference loop in ``Machine.run``
  (packed keys, slot counters, dict-ordering LRU, inlined cache
  cascades), the semantics of record and the fallback when numpy is
  absent, and
* **batch** — the vectorized columnar engine (:mod:`repro.core.batch`,
  the ``pomtlb[fast]`` path), which reads the same stream columns.

Each scheme is timed **cold** (first run of a fresh machine: demand
paging, stream debuts, compulsory misses — what a campaign run pays)
and **warm** (second run of the same machine: the sustained replay rate
with the working set resident, where vectorization pays most).  Rounds
interleave the engines (reference, scalar, batch, reference, ...) and
each (engine, phase) keeps its best time, so background load biases
nobody.

Promises enforced:

* **scalar speed** — cold geometric-mean speedup over the reference of
  at least ``POMTLB_MIN_SPEEDUP`` (default 2x) with a per-scheme floor,
  the gate carried since the scalar rewrite landed;
* **batch speed** — warm (sustained) geometric-mean speedup over the
  reference of at least ``POMTLB_MIN_BATCH_SPEEDUP`` (default 3x);
  skipped, with the scalar fallback still fully measured, when numpy
  is unavailable;
* **equivalence** — every ``SimulationResult`` scalar and every
  StatRegistry counter identical across all three engines, on the cold
  run and the warm run.

Results land in ``BENCH_engine.json`` under ``engine_throughput``;
per-scheme ``refs_per_sec`` reflects the engine a campaign would use
(batch when available), which is what the campaign scheduler reads.
The pre-batch scalar headline (2.021x) is retained under
``historical`` for continuity.

Scale knobs: the shared POMTLB_* variables (see conftest), plus
``POMTLB_BENCH_ROUNDS`` (default 3) and the two floors above (CI
lowers both on reduced-refs runs where fixed per-run overhead dilutes
the hot loop).
"""

import math
import os
from time import perf_counter

from repro.core.batch import HAS_NUMPY
from repro.core.refcheck import ReferenceMachine
from repro.core.system import Machine
from repro.workloads.suite import get_profile

SCHEMES = ("baseline", "pom", "pom_skewed", "shared_l2", "tsb")

RESULT_FIELDS = ("scheme", "references", "instructions", "l2_tlb_misses",
                 "penalty_cycles", "translation_cycles", "data_cycles",
                 "page_walks")

_ROUNDS = int(os.environ.get("POMTLB_BENCH_ROUNDS", 3))
_MIN_AGGREGATE = float(os.environ.get("POMTLB_MIN_SPEEDUP", 2.0))
_MIN_PER_SCHEME = 1.3
_MIN_BATCH = float(os.environ.get("POMTLB_MIN_BATCH_SPEEDUP", 3.0))

#: Scalar-engine headline at the PR that introduced this gate, kept in
#: the results file for continuity now that the headline engine is the
#: batch one.
_HISTORICAL_SCALAR = {"geomean_speedup": 2.021,
                      "note": "scalar engine vs reference, cold, at the "
                              "pre-batch revision of this benchmark"}


def _equivalent(reference, other) -> bool:
    return (all(getattr(reference, f) == getattr(other, f)
                for f in RESULT_FIELDS)
            and reference.stats.as_nested_dict()
            == other.stats.as_nested_dict())


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


class _EngineTimer:
    """Best-of-N cold/warm times for one engine on one scheme."""

    def __init__(self, factory, streams, warmup):
        self.factory = factory
        self.streams = streams
        self.warmup = warmup
        self.cold = self.warm = float("inf")
        self.cold_result = self.warm_result = None
        self.machine = None

    def round(self):
        machine = self.factory()
        started = perf_counter()
        self.cold_result = machine.run(self.streams,
                                       warmup_references=self.warmup)
        self.cold = min(self.cold, perf_counter() - started)
        started = perf_counter()
        self.warm_result = machine.run(self.streams,
                                       warmup_references=self.warmup)
        self.warm = min(self.warm, perf_counter() - started)
        self.machine = machine


def test_bench_engine_throughput(params, bench_json):
    profile = get_profile("gups")
    workload = profile.build(num_cores=params.num_cores,
                             refs_per_core=params.refs_per_core,
                             seed=params.seed, scale=params.scale)
    warmup = workload.warmup_by_core or workload.warmup_references
    config = params.system_config()

    per_scheme = {}
    scalar_speedups = []
    batch_cold_speedups = []
    batch_warm_speedups = []
    failures = []
    for scheme in SCHEMES:
        def reference():
            return ReferenceMachine(
                config, scheme=scheme,
                thp_large_fraction=profile.thp_large_fraction,
                seed=params.seed)

        def scalar():
            return Machine(
                config, scheme=scheme,
                thp_large_fraction=profile.thp_large_fraction,
                seed=params.seed, batch=False)

        def batch():
            return Machine(
                config, scheme=scheme,
                thp_large_fraction=profile.thp_large_fraction,
                seed=params.seed, batch=True)

        timers = [_EngineTimer(reference, workload.streams, warmup),
                  _EngineTimer(scalar, workload.streams, warmup)]
        batch_timer = None
        if HAS_NUMPY:
            batch_timer = _EngineTimer(batch, workload.streams, warmup)
            timers.append(batch_timer)
        for _ in range(_ROUNDS):
            for timer in timers:
                timer.round()

        ref_timer, scalar_timer = timers[0], timers[1]
        equal = (_equivalent(ref_timer.cold_result,
                             scalar_timer.cold_result)
                 and _equivalent(ref_timer.warm_result,
                                 scalar_timer.warm_result))
        if batch_timer is not None:
            assert batch_timer.machine.last_replay_mode == "batch", (
                scheme, batch_timer.machine.batch_fallback_reason)
            equal = (equal
                     and _equivalent(ref_timer.cold_result,
                                     batch_timer.cold_result)
                     and _equivalent(ref_timer.warm_result,
                                     batch_timer.warm_result))
        if not equal:
            failures.append(scheme)

        refs = scalar_timer.cold_result.references
        scalar_speedup = ref_timer.cold / scalar_timer.cold
        scalar_speedups.append(scalar_speedup)
        current = batch_timer or scalar_timer
        entry = {
            "refs": refs,
            "refs_per_sec": round(refs / current.cold, 1),
            "total_s": round(current.cold, 4),
            "ref_refs_per_sec": round(refs / ref_timer.cold, 1),
            "ref_total_s": round(ref_timer.cold, 4),
            "warm_ref_s": round(ref_timer.warm, 4),
            "scalar_refs_per_sec": round(refs / scalar_timer.cold, 1),
            "scalar_total_s": round(scalar_timer.cold, 4),
            "warm_scalar_s": round(scalar_timer.warm, 4),
            "scalar_speedup": round(scalar_speedup, 3),
            "equal": equal,
        }
        line = (f"\n{scheme:11s} ref {ref_timer.cold:6.3f}s "
                f"scalar {scalar_timer.cold:6.3f}s "
                f"({scalar_speedup:.2f}x)")
        if batch_timer is not None:
            cold_speedup = ref_timer.cold / batch_timer.cold
            warm_speedup = ref_timer.warm / batch_timer.warm
            batch_cold_speedups.append(cold_speedup)
            batch_warm_speedups.append(warm_speedup)
            entry.update({
                "batch_total_s": round(batch_timer.cold, 4),
                "batch_speedup": round(cold_speedup, 3),
                "warm_batch_s": round(batch_timer.warm, 4),
                "warm_batch_speedup": round(warm_speedup, 3),
                "speedup": round(cold_speedup, 3),
            })
            line += (f" batch {batch_timer.cold:6.3f}s "
                     f"({cold_speedup:.2f}x cold, "
                     f"{warm_speedup:.2f}x warm)")
        else:
            entry["speedup"] = round(scalar_speedup, 3)
        per_scheme[scheme] = entry
        print(line + f" equal={equal}")

    scalar_geomean = _geomean(scalar_speedups)
    payload = {
        "workload": "gups",
        "params": {"num_cores": params.num_cores,
                   "refs_per_core": params.refs_per_core,
                   "scale": params.scale, "seed": params.seed},
        "rounds": _ROUNDS,
        "batch_available": HAS_NUMPY,
        "schemes": per_scheme,
        "scalar_geomean_speedup": round(scalar_geomean, 3),
        "historical": _HISTORICAL_SCALAR,
    }
    if HAS_NUMPY:
        payload["batch_geomean_speedup"] = round(
            _geomean(batch_cold_speedups), 3)
        payload["batch_warm_geomean_speedup"] = round(
            _geomean(batch_warm_speedups), 3)
        payload["geomean_speedup"] = payload["batch_warm_geomean_speedup"]
    else:
        payload["geomean_speedup"] = round(scalar_geomean, 3)
    bench_json("engine_throughput", payload)

    assert not failures, (
        f"engines diverged from the reference for {failures}; "
        "see tests/integration/test_engine_equivalence.py for the "
        "counter-level diff")
    laggards = {s: round(v, 2) for s, v in zip(SCHEMES, scalar_speedups)
                if v < _MIN_PER_SCHEME}
    assert not laggards, (
        f"per-scheme scalar speedup floor {_MIN_PER_SCHEME}x violated: "
        f"{laggards}")
    assert scalar_geomean >= _MIN_AGGREGATE, (
        f"scalar aggregate speedup {scalar_geomean:.2f}x < target "
        f"{_MIN_AGGREGATE}x "
        f"(per scheme: {[round(s, 2) for s in scalar_speedups]})")
    if HAS_NUMPY:
        batch_geomean = _geomean(batch_warm_speedups)
        assert batch_geomean >= _MIN_BATCH, (
            f"batch sustained speedup {batch_geomean:.2f}x < target "
            f"{_MIN_BATCH}x (per scheme: "
            f"{[round(s, 2) for s in batch_warm_speedups]})")
