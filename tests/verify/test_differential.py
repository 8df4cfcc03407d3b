"""Differential audit: smoke, shrinking, and violation artifacts."""

import os

import pytest

from repro.common.errors import VerificationError
from repro.experiments.runner import ExperimentParams
from repro.verify import INVARIANT_REGISTRY, InvariantChecker
from repro.verify.differential import (ALL_SCHEMES, audit_benchmark,
                                       shrink_trace)
from repro.workloads.packed import load_packed
from repro.workloads.trace import CoreStream, MemoryReference

PARAMS = ExperimentParams(num_cores=1, refs_per_core=400, scale=0.02, seed=3)


class TestAuditSmoke:

    def test_all_schemes_pass(self):
        report = audit_benchmark("gups", PARAMS)
        assert report.ok
        assert set(report.results) == set(ALL_SCHEMES)

    def test_invariant_subset_runs(self):
        report = audit_benchmark("gcc", PARAMS, schemes=("pom",),
                                 invariants=("set-address",))
        assert report.ok

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValueError, match="unknown invariant"):
            audit_benchmark("gcc", PARAMS, schemes=("pom",),
                            invariants=("bogus",))


class TestShrinkTrace:

    @staticmethod
    def _streams(values, cores=2):
        """Streams whose records carry ``values`` as their icounts."""
        per_core = len(values) // cores
        return [CoreStream(core=c, vm_id=0, asid=1,
                           references=[MemoryReference(v, 0x1000 * v, False)
                                       for v in values[c * per_core:
                                                       (c + 1) * per_core]])
                for c in range(cores)]

    def test_shrinks_to_single_culprit(self):
        streams = self._streams(list(range(100)))

        def still_fails(candidate):
            return any(ref.icount == 57
                       for s in candidate for ref in s.references)

        minimal = shrink_trace(streams, still_fails)
        kept = [ref.icount for s in minimal for ref in s.references]
        assert kept == [57]

    def test_budget_caps_evaluations(self):
        streams = self._streams(list(range(64)))
        calls = []

        def still_fails(candidate):
            calls.append(1)
            return 7 in [r.icount for s in candidate for r in s.references]

        shrink_trace(streams, still_fails, budget=5)
        assert len(calls) <= 5

    def test_preserves_stream_identity(self):
        streams = self._streams(list(range(40)), cores=2)

        def still_fails(candidate):
            return any(s.core == 1 and s.references for s in candidate)

        minimal = shrink_trace(streams, still_fails)
        assert all(s.core == 1 for s in minimal)
        assert all(s.vm_id == 0 and s.asid == 1 for s in minimal)


class _FailAtTen(InvariantChecker):
    """Test invariant: violated whenever >= 10 references were measured."""

    name = "fail-at-ten"

    def __init__(self) -> None:
        self.count = 0

    def on_translation(self, result) -> None:
        self.count += 1

    def reset(self) -> None:
        self.count = 0

    def check_final(self, machine, result) -> None:
        if self.count >= 10:
            self.fail(f"saw {self.count} references (threshold 10)")


class TestViolationArtifact:

    def test_violation_shrinks_and_writes_packed_repro(self, tmp_path):
        INVARIANT_REGISTRY[_FailAtTen.name] = _FailAtTen
        try:
            params = ExperimentParams(num_cores=1, refs_per_core=60,
                                      scale=0.02, seed=3)
            with pytest.raises(VerificationError) as exc_info:
                audit_benchmark("gcc", params, schemes=("baseline",),
                                invariants=(_FailAtTen.name,),
                                artifact_dir=str(tmp_path))
        finally:
            del INVARIANT_REGISTRY[_FailAtTen.name]
        violation = exc_info.value
        assert violation.invariant == _FailAtTen.name
        assert "[gcc/baseline]" in violation.detail
        assert violation.artifact.endswith("gcc-baseline-violation.pwl")
        assert os.path.exists(violation.artifact)
        container = load_packed(violation.artifact)
        total = sum(len(s) for s in container.streams)
        # ddmin converges on the threshold: 10 refs fail, 9 pass.
        assert total == 10

    def test_no_shrink_raises_unwrapped(self):
        INVARIANT_REGISTRY[_FailAtTen.name] = _FailAtTen
        try:
            params = ExperimentParams(num_cores=1, refs_per_core=60,
                                      scale=0.02, seed=3)
            with pytest.raises(VerificationError) as exc_info:
                audit_benchmark("gcc", params, schemes=("baseline",),
                                invariants=(_FailAtTen.name,),
                                shrink=False)
        finally:
            del INVARIANT_REGISTRY[_FailAtTen.name]
        assert exc_info.value.artifact == ""
