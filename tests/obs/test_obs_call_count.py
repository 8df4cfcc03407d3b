"""Count guard: latency histograms cost no Python frame per reference.

A guard that compares wall times carries timer noise (the timing guard
this one replaced failed on unchanged code).  This guard counts: the
same gups machine, forced onto the scalar replay loop, runs once with
the default observability (histograms on, null tracer) and once with
``Observability(histograms=False)``, under ``sys.setprofile``.  Histograms
record through a list's bound ``append`` (a C call, invisible to the
``call`` event), so the only Python frames they may add are the folds:
at most ``ceil(refs / FOLD_AT)`` of them, each costing a bounded number
of calls.  One extra frame per reference breaks the bound by orders of
magnitude, which the second test demonstrates by planting one.
"""

import math
import sys

from repro.common.config import SystemConfig
from repro.core.system import Machine
from repro.obs import Observability
from repro.obs.histogram import FOLD_AT
from repro.workloads.suite import get_profile

#: Python calls one fold of every histogram may cost (the fold methods,
#: Counter's constructor, one ``record_many`` per distinct latency).
#: About 56 on this workload; a per-reference frame adds ~FOLD_AT.
CALLS_PER_FOLD = 128


def _profile_calls(obs, plant=None):
    """(Python ``call`` events during ``Machine.run``, references)."""
    profile = get_profile("gups")
    workload = profile.build(num_cores=2, refs_per_core=4000, seed=7,
                             scale=0.2)
    machine = Machine(SystemConfig(num_cores=2), scheme="pom",
                      thp_large_fraction=profile.thp_large_fraction, seed=7,
                      obs=obs, batch=False)
    if plant is not None:
        plant(machine)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = machine.run(workload.streams)
    finally:
        sys.setprofile(None)
    assert machine.last_replay_mode == "scalar"
    return calls, result.references


def _extra_calls(plant=None):
    """Calls histograms add over disabled observability, and the bound."""
    disabled, refs = _profile_calls(Observability(histograms=False))
    enabled, enabled_refs = _profile_calls(None, plant)
    assert enabled_refs == refs
    return enabled - disabled, math.ceil(refs / FOLD_AT) * CALLS_PER_FOLD


def test_histograms_add_only_fold_calls():
    extra, bound = _extra_calls()
    assert 0 <= extra <= bound, (
        f"histograms add {extra} Python calls per run (bound {bound}): "
        f"something records through a Python frame per reference")


def test_an_eager_record_frame_breaks_the_bound():
    def plant(machine):
        histogram = machine.obs.histograms["translation_cycles"]
        append = histogram.pending.append

        def eager_record(value):
            append(value)

        histogram.record = eager_record

    extra, bound = _extra_calls(plant)
    assert extra > bound
