"""Unit tests for error classification and deterministic backoff."""

import pytest

from repro.common.errors import (
    ConfigError,
    FaultInjected,
    ReproError,
    RunTimeout,
    TraceFormatError,
    TransientError,
    WorkerCrash,
)
from repro.resilience import RetryPolicy, is_transient


class TestClassification:
    def test_transient_errors(self):
        assert is_transient(RunTimeout("gups", "pom", 5.0))
        assert is_transient(WorkerCrash("gups", "pom", 134))
        assert is_transient(FaultInjected("boom"))
        assert is_transient(TransientError("generic"))

    def test_permanent_errors(self):
        assert not is_transient(TraceFormatError("bad"))
        assert not is_transient(ConfigError("bad"))
        assert not is_transient(ReproError("generic"))
        assert not is_transient(ValueError("not even ours"))

    def test_error_messages_carry_context(self):
        timeout = RunTimeout("gups", "pom", 5.0)
        assert "gups" in str(timeout) and "5" in str(timeout)
        crash = WorkerCrash("mcf", "tsb", 134)
        assert "mcf" in str(crash) and "134" in str(crash)


class TestPolicyValidation:
    def test_defaults_valid(self):
        RetryPolicy()

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-0.1)

    def test_shrinking_factor_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)

    def test_jitter_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestBackoff:
    def test_deterministic_for_same_inputs(self):
        a = RetryPolicy(seed=7).delay_s("key", 1)
        b = RetryPolicy(seed=7).delay_s("key", 1)
        assert a == b

    def test_seed_changes_jitter(self):
        assert (RetryPolicy(seed=1).delay_s("key", 1)
                != RetryPolicy(seed=2).delay_s("key", 1))

    def test_key_changes_jitter(self):
        policy = RetryPolicy()
        assert policy.delay_s("run-a", 1) != policy.delay_s("run-b", 1)

    def test_exponential_growth_within_jitter_band(self):
        policy = RetryPolicy(base_delay_s=1.0, factor=2.0, jitter=0.5,
                             max_delay_s=1000.0)
        for attempt in (1, 2, 3, 4):
            base = 2.0 ** (attempt - 1)
            delay = policy.delay_s("key", attempt)
            assert base <= delay <= base * 1.5

    def test_cap_applies_before_jitter(self):
        policy = RetryPolicy(base_delay_s=10.0, factor=10.0, jitter=0.5,
                             max_delay_s=15.0)
        assert policy.delay_s("key", 5) <= 15.0 * 1.5

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(base_delay_s=0.5, factor=2.0, jitter=0.0)
        assert policy.delay_s("key", 2) == 1.0

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_s("key", 0)
