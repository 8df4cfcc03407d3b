"""End-to-end integration: traces -> simulation -> figures -> CLI."""

import io

import pytest

from repro.cli import main as cli_main
from repro.common.config import SystemConfig
from repro.core.system import Machine
from repro.experiments.campaign import run_all
from repro.experiments.runner import ExperimentParams
from repro.workloads.suite import get_profile
from repro.workloads.trace import load_stream, save_stream


class TestTraceRoundtripThroughSimulation:
    def test_saved_trace_reproduces_simulation(self, tmp_path):
        profile = get_profile("gcc")
        workload = profile.build(num_cores=1, refs_per_core=400,
                                 seed=5, scale=0.03)
        # Serialize, reload, and re-run: results must be identical.
        path = str(tmp_path / "gcc.trace.gz")
        save_stream(workload.streams[0], path)
        reloaded = load_stream(path)

        results = []
        for streams in (workload.streams, [reloaded]):
            machine = Machine(SystemConfig(num_cores=1), scheme="pom",
                              thp_large_fraction=profile.thp_large_fraction,
                              seed=5)
            results.append(machine.run(
                streams, warmup_references=workload.warmup_references))
        assert results[0].l2_tlb_misses == results[1].l2_tlb_misses
        assert results[0].penalty_cycles == results[1].penalty_cycles


class TestDeterminism:
    def test_identical_runs_produce_identical_stats(self):
        profile = get_profile("canneal")
        workload = profile.build(num_cores=2, refs_per_core=400,
                                 seed=9, scale=0.03)
        snapshots = []
        for _ in range(2):
            machine = Machine(SystemConfig(num_cores=2), scheme="pom",
                              thp_large_fraction=profile.thp_large_fraction,
                              seed=9)
            machine.run(workload.streams,
                        warmup_references=workload.warmup_references)
            snapshots.append(machine.stats.as_nested_dict())
        assert snapshots[0] == snapshots[1]


class TestCampaign:
    def test_tiny_campaign_produces_all_reports(self):
        params = ExperimentParams(num_cores=1, refs_per_core=300,
                                  scale=0.02, seed=2)
        out = io.StringIO()
        progress = io.StringIO()
        reports = run_all(params, benchmarks=["gcc", "canneal"], out=out,
                          include_sensitivity=False, progress=progress)
        titles = [r.title for r in reports]
        assert any("Table 1" in t for t in titles)
        assert any("Figure 8" in t for t in titles)
        assert any("Figure 12" in t for t in titles)
        # Timing goes to the progress stream; the report stays deterministic.
        assert "campaign finished" in progress.getvalue()
        assert "campaign finished" not in out.getvalue()

    def test_progress_counts_each_distinct_run_once(self):
        # The 16 MiB capacity point is the default POM-TLB run: the
        # duplicate request runs once, and the count says so.
        params = ExperimentParams(num_cores=1, refs_per_core=300,
                                  scale=0.02, seed=2)
        progress = io.StringIO()
        result = run_all(params, benchmarks=["gups"], out=io.StringIO(),
                         progress=progress)
        lines = [line for line in progress.getvalue().splitlines()
                 if line.startswith("# [")]
        total = result.simulated + result.restored + len(result.failures)
        assert len(lines) == total
        assert lines[-1].startswith(f"# [{total}/{total}] ")


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "campaign" in out

    def test_static_figure(self, capsys):
        assert cli_main(["fig4"]) == 0
        assert "16MiB" in capsys.readouterr().out

    def test_table(self, capsys):
        assert cli_main(["table2"]) == 0
        assert "ccomponent" in capsys.readouterr().out

    def test_dynamic_figure_with_output_file(self, tmp_path):
        out = tmp_path / "fig9.txt"
        code = cli_main(["fig9", "--benchmarks", "gcc", "--cores", "1",
                         "--refs", "300", "--scale", "0.02",
                         "--output", str(out)])
        assert code == 0
        assert "Figure 9" in out.read_text()

    def test_unknown_benchmark_rejected(self, capsys):
        assert cli_main(["fig9", "--benchmarks", "nope"]) == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig99"])


class TestCliBars:
    def test_bar_chart_rendering(self, capsys):
        assert cli_main(["fig4", "--bars", "normalised_latency"]) == 0
        out = capsys.readouterr().out
        assert "#" in out
        assert "16MiB" in out

    def test_bad_bar_column_fails_loudly(self):
        with pytest.raises(ValueError):
            cli_main(["fig4", "--bars", "nonexistent"])
