"""Unit tests for the experiment runner (tiny configurations)."""

import dataclasses

import pytest

from repro.common.errors import ConfigError, RunFailed
from repro.core.batch import HAS_NUMPY
from repro.experiments.runner import (
    EXECUTION_FIELDS,
    BenchmarkRun,
    ExperimentParams,
    SuiteRunner,
    simulate_run,
)

TINY = ExperimentParams(num_cores=1, refs_per_core=400, scale=0.02, seed=3)


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(TINY)


class TestExperimentParams:
    def test_defaults_are_paper_config(self):
        params = ExperimentParams()
        assert params.num_cores == 8
        assert params.pom_size_bytes == 16 * 1024 * 1024
        assert params.virtualized

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("POMTLB_CORES", "2")
        monkeypatch.setenv("POMTLB_SCALE", "0.5")
        params = ExperimentParams.from_env()
        assert params.num_cores == 2
        assert params.scale == 0.5

    def test_from_env_overrides_win(self, monkeypatch):
        monkeypatch.setenv("POMTLB_CORES", "2")
        params = ExperimentParams.from_env(num_cores=4)
        assert params.num_cores == 4

    def test_system_config_reflects_params(self):
        params = ExperimentParams(pom_size_bytes=8 * 1024 * 1024,
                                  cache_tlb_entries=False, num_cores=4)
        cfg = params.system_config()
        assert cfg.pom_tlb.size_bytes == 8 * 1024 * 1024
        assert not cfg.cache_tlb_entries
        assert cfg.num_cores == 4

    def test_params_hashable(self):
        assert hash(ExperimentParams()) == hash(ExperimentParams())

    @pytest.mark.parametrize("variable", [
        "POMTLB_CORES", "POMTLB_REFS", "POMTLB_SEED", "POMTLB_WORKERS",
    ])
    def test_from_env_bad_int_names_variable(self, monkeypatch, variable):
        monkeypatch.setenv(variable, "lots")
        with pytest.raises(ConfigError) as excinfo:
            ExperimentParams.from_env()
        assert variable in str(excinfo.value)
        assert "lots" in str(excinfo.value)

    def test_from_env_bad_float_names_variable(self, monkeypatch):
        monkeypatch.setenv("POMTLB_SCALE", "half")
        with pytest.raises(ConfigError, match="POMTLB_SCALE"):
            ExperimentParams.from_env()

    def test_from_env_reads_workers(self, monkeypatch):
        monkeypatch.setenv("POMTLB_WORKERS", "4")
        assert ExperimentParams.from_env().workers == 4

    @pytest.mark.parametrize("env, overrides, mode", [
        ("0", {}, "scalar"),                # reaches direct builds
        ("1", {"batch": False}, "scalar"),  # --no-batch beats it
        (None, {}, "batch" if HAS_NUMPY else "scalar"),
    ])
    def test_pomtlb_batch_reaches_directly_built_params(
            self, monkeypatch, env, overrides, mode):
        import repro.experiments.runner as runner_module

        machines = []

        class RecordingMachine(runner_module.Machine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                machines.append(self)

        monkeypatch.setattr(runner_module, "Machine", RecordingMachine)
        if env is None:
            monkeypatch.delenv("POMTLB_BATCH", raising=False)
        else:
            monkeypatch.setenv("POMTLB_BATCH", env)
        simulate_run("gups", "pom", dataclasses.replace(TINY, **overrides))
        assert [machine.last_replay_mode for machine in machines] == [mode]

    def test_checkpoint_fields_exclude_execution_knobs(self):
        fields = ExperimentParams().checkpoint_fields()
        for name in EXECUTION_FIELDS:
            assert name not in fields
        assert "seed" in fields and "scale" in fields


class TestSuiteRunner:
    def test_run_returns_benchmark_run(self, runner):
        run = runner.run("gcc", "pom")
        assert isinstance(run, BenchmarkRun)
        assert run.benchmark == "gcc"
        assert run.scheme == "pom"
        assert run.result.references > 0

    def test_memoisation(self, runner):
        first = runner.run("gcc", "pom")
        second = runner.run("gcc", "pom")
        assert first is second

    def test_different_params_not_conflated(self, runner):
        base = runner.run("gcc", "pom")
        other_params = dataclasses.replace(TINY, cache_tlb_entries=False)
        other = runner.run("gcc", "pom", other_params)
        assert base is not other

    def test_improvement_is_finite(self, runner):
        run = runner.run("gcc", "pom")
        assert -100 < run.improvement_percent < 100

    def test_unknown_benchmark_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.run("quake", "pom")

    def test_unknown_scheme_rejected(self, runner):
        with pytest.raises(ValueError):
            runner.run("gcc", "quantum")

    def test_simulations_counter_tracks_cache_misses(self):
        local = SuiteRunner(TINY)
        local.run("gcc", "pom")
        local.run("gcc", "pom")   # memoised; no new simulation
        assert local.simulations == 1

    def test_install_feeds_the_cache(self, runner):
        local = SuiteRunner(TINY)
        run = runner.run("gcc", "pom")
        local.install(run, TINY)
        assert local.run("gcc", "pom") is run
        assert local.simulations == 0

    def test_recorded_failure_raises_run_failed(self):
        local = SuiteRunner(TINY)

        class _Error:
            type = "WorkerCrash"
            message = "died"

        class _Failure:
            error = _Error()
            attempts = 3

        local.record_failure("gcc", "pom", _Failure())
        with pytest.raises(RunFailed, match="WorkerCrash"):
            local.run("gcc", "pom")
        # Other (benchmark, scheme) pairs are unaffected.
        assert local.run("gcc", "baseline").benchmark == "gcc"
