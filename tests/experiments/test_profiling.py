"""Unit tests for the ``pomtlb profile`` experiment driver."""

from repro.experiments.profiling import profile_benchmark
from repro.experiments.runner import ExperimentParams

_PARAMS = ExperimentParams(num_cores=1, refs_per_core=300, scale=0.02, seed=2)


class TestProfileBenchmark:
    def test_report_shape(self):
        report = profile_benchmark(_PARAMS, "gups")
        assert report.headers == ("layer", "calls", "self_s", "self_pct")
        layers = report.column("layer")
        assert "core.mmu" in layers
        assert "paging.nested" in layers
        assert "core.pom_tlb" in layers      # the pom scheme probes it
        assert "(builtins)" in layers
        assert len(set(layers)) == len(layers)
        assert all(calls > 0 for calls in report.column("calls"))
        assert any("wall-clock" in note for note in report.notes)

    def test_baseline_scheme_has_no_stacked_dram(self):
        report = profile_benchmark(_PARAMS, "gups", scheme="baseline")
        layers = report.column("layer")
        assert "core.mmu" in layers
        assert "paging.nested" in layers
        assert "core.pom_tlb" not in layers

    def test_self_pct_sums_to_100(self):
        report = profile_benchmark(_PARAMS, "gups")
        assert abs(sum(report.column("self_pct")) - 100.0) < 1e-6
