"""Acceptance tests for the resilient campaign engine.

The ISSUE-level contract: an interrupted checkpointed campaign resumes
without re-simulating finished runs, injected process faults degrade the
campaign instead of killing it, and none of the machinery perturbs the
serial deterministic output.
"""

import dataclasses
import io

import pytest

from repro import cli
from repro.experiments import campaign
from repro.experiments.runner import ExperimentParams
from repro.faults import FaultPlan

#: One benchmark, tiny scale: the full campaign enumeration stays small
#: (fig8 schemes + baseline/native + uncached + sensitivity sweeps).
TINY = ExperimentParams(num_cores=1, refs_per_core=300, scale=0.02, seed=5,
                        max_retries=0, retry_backoff_s=0.0)

CLI_ARGS = ["campaign", "--benchmarks", "gups", "--cores", "1",
            "--refs", "300", "--scale", "0.02", "--seed", "5",
            "--max-retries", "0", "--retry-backoff", "0"]


def run_campaign(**kwargs):
    out = io.StringIO()
    result = campaign.run_all(TINY, ["gups"], out=out,
                              progress=io.StringIO(), **kwargs)
    return result, out.getvalue()


class TestCheckpointResume:
    def test_resume_resimulates_nothing(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        first, text_first = run_campaign(checkpoint_path=path)
        assert first.simulated > 0
        assert not first.failures

        resumed, text_resumed = run_campaign(checkpoint_path=path,
                                             resume=True)
        assert resumed.simulated == 0          # the acceptance criterion
        assert resumed.restored == first.simulated
        assert text_resumed == text_first      # same report either way

    def test_seed_change_misses_the_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        first, _ = run_campaign(checkpoint_path=path)
        reseeded = dataclasses.replace(TINY, seed=TINY.seed + 1)
        out = io.StringIO()
        second = campaign.run_all(reseeded, ["gups"], out=out,
                                  progress=io.StringIO(),
                                  checkpoint_path=path, resume=True)
        assert second.restored == 0
        assert second.simulated == first.simulated

    def test_execution_knobs_still_hit_the_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        run_campaign(checkpoint_path=path)
        retimed = dataclasses.replace(TINY, run_timeout_s=99.0,
                                      max_retries=5)
        out = io.StringIO()
        resumed = campaign.run_all(retimed, ["gups"], out=out,
                                   progress=io.StringIO(),
                                   checkpoint_path=path, resume=True)
        assert resumed.simulated == 0

    def test_without_resume_checkpoint_is_overwritten_not_read(
            self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        first, _ = run_campaign(checkpoint_path=path)
        again, _ = run_campaign(checkpoint_path=path)  # no resume=True
        assert again.restored == 0
        assert again.simulated == first.simulated


class TestDegradedCampaign:
    def test_faulted_runs_annotate_report_and_set_failures(self):
        faults = FaultPlan.parse("crash@gups/pom#*,hang@gups/tsb#*")
        result, text = run_campaign(faults=faults)
        assert result.failures
        types = {failure.error.type for failure in result.failures}
        assert types == {"WorkerCrash", "RunTimeout"}
        assert "Campaign failures" in text
        assert "n/a" in text               # missing cells, not missing rows
        assert "Figure 8" in text          # every report still renders

    def test_single_transient_fault_recovers(self):
        retrying = dataclasses.replace(TINY, max_retries=1)
        out = io.StringIO()
        result = campaign.run_all(retrying, ["gups"], out=out,
                                  progress=io.StringIO(),
                                  faults=FaultPlan.parse("crash@gups/pom#1"))
        assert not result.failures
        assert "n/a" not in out.getvalue()


class TestDeterminism:
    def test_serial_campaign_is_byte_identical(self):
        _, first = run_campaign()
        _, second = run_campaign()
        assert first == second

    def test_checkpointing_does_not_change_the_report(self, tmp_path):
        _, plain = run_campaign()
        _, checkpointed = run_campaign(
            checkpoint_path=str(tmp_path / "ck.jsonl"))
        assert plain == checkpointed


class TestCliExitCodes:
    def test_interrupt_exits_130_with_resumable_checkpoint(
            self, tmp_path, capsys):
        ck = tmp_path / "ck.jsonl"
        out = tmp_path / "report.txt"
        code = cli.main(CLI_ARGS + [
            "--checkpoint", str(ck), "--output", str(out),
            "--inject-faults", "interrupt@gups/baseline#1"])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err
        assert ck.exists() and ck.stat().st_size > 0  # fig8 runs landed
        assert not out.exists()                       # no half-report

        resumed = tmp_path / "resumed.txt"
        code = cli.main(CLI_ARGS + [
            "--checkpoint", str(ck), "--resume", "--output", str(resumed)])
        capsys.readouterr()
        assert code == 0
        assert "Figure 8" in resumed.read_text()

    def test_degraded_campaign_exits_1(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = cli.main(CLI_ARGS + [
            "--output", str(out),
            "--inject-faults", "crash@gups/pom#*"])
        assert code == 1
        assert "degraded" in capsys.readouterr().err
        assert "Campaign failures" in out.read_text()

    def test_bad_fault_spec_exits_2(self, capsys):
        code = cli.main(CLI_ARGS + ["--inject-faults", "explode@gups"])
        assert code == 2
        assert "explode" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, capsys):
        assert cli.main(CLI_ARGS + ["--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_resilience_flags_rejected_outside_campaign(self, capsys):
        code = cli.main(["fig8", "--benchmarks", "gups",
                         "--checkpoint", "ck.jsonl"])
        assert code == 2
        assert "campaign" in capsys.readouterr().err

    def test_bad_env_value_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("POMTLB_CORES", "many")
        code = cli.main(["fig8", "--benchmarks", "gups"])
        assert code == 2
        err = capsys.readouterr().err
        assert "POMTLB_CORES" in err and "many" in err

    @pytest.mark.parametrize("flags", [
        ["--max-retries", "-1"],
        ["--retry-backoff", "-1"],
        ["--refs", "-5"],
        ["--timeout", "-1", "--workers", "2"],
        ["--cores", "0"],
    ], ids=["max-retries", "retry-backoff", "refs", "timeout", "cores"])
    def test_out_of_range_params_exit_2_before_simulating(self, flags,
                                                           capsys):
        code = cli.main(["campaign", "--benchmarks", "gups", "--cores", "1",
                         "--refs", "200", "--scale", "0.02"] + flags)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("configuration error: "), err
        assert "# [" not in err  # no run was dispatched
