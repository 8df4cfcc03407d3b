"""Differential replay equivalence of packed workload bytes.

The campaign compiles each distinct workload once, packs it with
``encode_workload`` and hands the bytes to every run on its
``RunRequest``.  That is a pure transport: for every scheme, replaying
``decode_container(blob).workload()`` must produce *bit-identical*
results to regenerating the streams from the profile.  Identical means
every ``SimulationResult`` counter, every ``StatRegistry`` value, and
every performance-model quantity; campaign reports must come out
byte-identical whether runs execute serially or in a pool.
"""

import dataclasses
import io
import os
import subprocess
import sys

import pytest

from repro.experiments import campaign
from repro.experiments.runner import ExperimentParams, simulate_run
from repro.workloads.packed import decode_container, encode_workload
from repro.workloads.suite import get_profile
from repro.workloads.trace import validate_stream

SCHEMES = ("baseline", "pom", "pom_skewed", "shared_l2", "tsb")

PARAMS = ExperimentParams(num_cores=2, refs_per_core=250, scale=0.05,
                          seed=11)


def fingerprint(run):
    """Everything observable about one simulation, for exact comparison."""
    result = run.result
    return {
        "scheme": result.scheme,
        "references": result.references,
        "instructions": result.instructions,
        "l2_tlb_misses": result.l2_tlb_misses,
        "penalty_cycles": result.penalty_cycles,
        "translation_cycles": result.translation_cycles,
        "data_cycles": result.data_cycles,
        "page_walks": result.page_walks,
        "stats": result.stats.as_nested_dict(),
        "performance": dataclasses.astuple(run.performance),
    }


def packed_bytes(bench):
    """The bytes the campaign parent would attach to ``bench``'s runs."""
    workload = get_profile(bench).build(num_cores=PARAMS.num_cores,
                                        refs_per_core=PARAMS.refs_per_core,
                                        seed=PARAMS.seed, scale=PARAMS.scale)
    for stream in workload.streams:
        validate_stream(stream)
    return encode_workload(workload, validated=True)


@pytest.mark.parametrize("bench", ["gups", "graph500"])
class TestReplayModes:
    def test_packed_replay_is_bit_identical(self, bench):
        blob = packed_bytes(bench)
        for scheme in SCHEMES:
            generated = simulate_run(bench, scheme, PARAMS)
            packed = simulate_run(bench, scheme, PARAMS,
                                  workload=decode_container(blob).workload())
            assert fingerprint(packed) == fingerprint(generated), scheme

    def test_one_container_many_replays(self, bench):
        """Back-to-back replays off one container don't interfere."""
        container = decode_container(packed_bytes(bench))
        first = simulate_run(bench, "pom", PARAMS,
                             workload=container.workload())
        second = simulate_run(bench, "pom", PARAMS,
                              workload=container.workload())
        assert fingerprint(first) == fingerprint(second)


TINY = ExperimentParams(num_cores=1, refs_per_core=300, scale=0.02, seed=5,
                        max_retries=0, retry_backoff_s=0.0)


def campaign_text(params=TINY, **kwargs):
    out = io.StringIO()
    result = campaign.run_all(params, ["gups"], out=out,
                              progress=io.StringIO(), **kwargs)
    assert not result.failures
    return out.getvalue()


class TestCampaignEquivalence:
    def test_serial_shared_matches_status_quo(self, monkeypatch):
        shared = campaign_text()
        # Status quo: requests carry no bytes, every run regenerates.
        monkeypatch.setattr(campaign, "_compile_workloads",
                            lambda requests: (requests, 0))
        assert campaign_text() == shared

    def test_pooled_matches_serial(self):
        # The "# params:" header leaves out execution knobs such as
        # workers=, so the two reports match byte for byte.
        pooled = campaign_text(dataclasses.replace(TINY, workers=2),
                               include_sensitivity=False)
        serial = campaign_text(include_sensitivity=False)
        assert pooled == serial


_POOLED_CAMPAIGN = """
import io, os
from multiprocessing import resource_tracker
from repro.experiments import campaign
from repro.experiments.runner import ExperimentParams

before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
params = ExperimentParams(num_cores=1, refs_per_core=300, scale=0.02, seed=5,
                          workers=2, max_retries=0, retry_backoff_s=0.0)
result = campaign.run_all(params, ["gups"], out=io.StringIO(),
                          progress=io.StringIO(), include_sensitivity=False)
assert not result.failures and result.simulated > 0
after = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
print("tracker", resource_tracker._resource_tracker._fd is None)
print("segments", sorted(n for n in after - before
                         if n.startswith("pomtlb-wl-")))
"""


def test_pooled_campaign_needs_no_shared_memory():
    """Bytes ride the worker pipe: no resource tracker, no /dev/shm segment."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", _POOLED_CAMPAIGN],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["tracker True", "segments []"]
