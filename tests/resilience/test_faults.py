"""Unit tests for the fault-injection plan and its grammar."""

import pytest

from repro.common.errors import ConfigError, FaultInjected, TraceFormatError
from repro.faults import (
    NO_FAULTS,
    NO_TRANSLATION_FAULTS,
    UNLIMITED,
    FaultPlan,
    RaiseAtTranslation,
    corrupt_streams,
)
from repro.workloads.trace import CoreStream, MemoryReference, validate_stream


class TestGrammar:
    def test_bare_kind(self):
        plan = FaultPlan.parse("crash")
        rule = plan.rules[0]
        assert (rule.kind, rule.benchmark, rule.scheme, rule.remaining) == \
            ("crash", "*", "*", 1)

    def test_target_benchmark_and_scheme(self):
        rule = FaultPlan.parse("hang@mcf/tsb").rules[0]
        assert (rule.benchmark, rule.scheme) == ("mcf", "tsb")

    def test_target_benchmark_only(self):
        rule = FaultPlan.parse("crash@gups").rules[0]
        assert (rule.benchmark, rule.scheme) == ("gups", "*")

    def test_count(self):
        assert FaultPlan.parse("crash#3").rules[0].remaining == 3

    def test_unlimited_count(self):
        assert FaultPlan.parse("crash#*").rules[0].remaining == UNLIMITED

    def test_raise_trigger_point(self):
        rule = FaultPlan.parse("raise@gups/pom:n=250").rules[0]
        assert (rule.kind, rule.n) == ("raise", 250)

    def test_multiple_directives(self):
        plan = FaultPlan.parse("crash@gups/pom#*, hang@mcf, ckpt-io")
        assert [r.kind for r in plan.rules] == ["crash", "hang", "ckpt-io"]

    @pytest.mark.parametrize("spec", [
        "explode",            # unknown kind
        "crash#zero",         # non-integer count
        "crash#0",            # count below 1
        "raise:n=abc",        # non-integer trigger
        "raise:n=0",          # trigger below 1
        "crash:m=3",          # unknown parameter
        "",                   # no directives at all
        " , ,",               # only separators
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            FaultPlan.parse(spec)

    def test_bad_spec_error_names_directive(self):
        with pytest.raises(ConfigError, match="explode"):
            FaultPlan.parse("explode@gups")


class TestConsumption:
    def test_counted_rule_fires_then_stops(self):
        plan = FaultPlan.parse("crash@gups/pom#2")
        assert plan.take_run_fault("gups", "pom") == ("crash", 1)
        assert plan.take_run_fault("gups", "pom") == ("crash", 1)
        assert plan.take_run_fault("gups", "pom") is None

    def test_unlimited_rule_never_exhausts(self):
        plan = FaultPlan.parse("crash#*")
        for _ in range(10):
            assert plan.take_run_fault("any", "thing") == ("crash", 1)

    def test_targeting_filters_matches(self):
        plan = FaultPlan.parse("crash@gups/pom")
        assert plan.take_run_fault("gups", "tsb") is None
        assert plan.take_run_fault("mcf", "pom") is None
        assert plan.take_run_fault("gups", "pom") == ("crash", 1)

    def test_at_most_one_directive_per_attempt(self):
        plan = FaultPlan.parse("crash@gups#1,hang@gups#1")
        assert plan.take_run_fault("gups", "pom") == ("crash", 1)
        assert plan.take_run_fault("gups", "pom") == ("hang", 1)
        assert plan.take_run_fault("gups", "pom") is None

    def test_checkpoint_fault_separate_from_run_faults(self):
        plan = FaultPlan.parse("ckpt-io#1,crash#1")
        assert plan.take_run_fault("gups", "pom") == ("crash", 1)
        assert plan.take_checkpoint_fault()
        assert not plan.take_checkpoint_fault()

    def test_run_query_never_consumes_ckpt_io(self):
        plan = FaultPlan.parse("ckpt-io#1")
        assert plan.take_run_fault("gups", "pom") is None
        assert plan.take_checkpoint_fault()


class TestNullObjects:
    def test_no_faults_disabled(self):
        assert not NO_FAULTS.enabled
        assert NO_FAULTS.take_run_fault("gups", "pom") is None
        assert not NO_FAULTS.take_checkpoint_fault()

    def test_parsed_plan_enabled(self):
        assert FaultPlan.parse("crash").enabled

    def test_translation_null_inactive(self):
        assert not NO_TRANSLATION_FAULTS.active


class TestSimulationHooks:
    def test_raise_at_translation_counts(self):
        faulter = RaiseAtTranslation(3)
        faulter.on_translation()
        faulter.on_translation()
        with pytest.raises(FaultInjected, match="translation 3"):
            faulter.on_translation()

    def test_corrupt_streams_trips_validation(self):
        refs = [MemoryReference(i * 10, 0x1000 * (i + 1), False)
                for i in range(5)]
        stream = CoreStream(core=0, vm_id=0, asid=1, references=refs)
        stream.validated = True
        corrupt_streams([stream])
        assert not stream.validated
        # Record (5-1)//2 = 2 now carries the last icount + 1.
        assert stream.references[2].icount == 41
        with pytest.raises(TraceFormatError,
                           match="record 3: icount 30 goes backwards"):
            validate_stream(stream)

    def test_corrupt_streams_skips_empty(self):
        empty = CoreStream(core=0, vm_id=0, asid=1)
        single = CoreStream(core=1, vm_id=0, asid=2,
                            references=[MemoryReference(0, 0x1000, False)])
        target = CoreStream(core=2, vm_id=0, asid=3,
                            references=[MemoryReference(0, 0x1000, False),
                                        MemoryReference(4, 0x2000, True)])
        corrupt_streams([empty, single, target])
        assert list(single.icounts) == [0]
        assert list(target.icounts) == [5, 4]
        with pytest.raises(TraceFormatError, match="goes backwards"):
            validate_stream(target)
