"""Acceptance tests for campaign telemetry.

The ISSUE-level contract: a campaign run with ``--status-out`` produces
a schema-valid NDJSON status stream, a Prometheus text file, and a
self-contained HTML dashboard whose counters reconcile exactly with the
checkpoint store and the campaign report; telemetry left disabled
changes no report byte; the (event, key) sequence of a serial
campaign's stream is deterministic run to run; and both exporters are
functions of the stream alone, so replaying the file reproduces them.
"""

import io
import json
import re

import pytest

from repro import cli
from repro.experiments import campaign
from repro.experiments.runner import ExperimentParams
from repro.faults import FaultPlan
from repro.obs import NO_TELEMETRY, CampaignTelemetry, StatusSnapshot
from repro.obs.exporters import (
    DASHBOARD_FILENAME,
    PROMETHEUS_FILENAME,
    dashboard_document,
    prometheus_text,
)
from repro.obs.telemetry import validate_status_event
from repro.resilience import CheckpointStore

TINY = ExperimentParams(num_cores=1, refs_per_core=300, scale=0.02, seed=5,
                        max_retries=0, retry_backoff_s=0.0)


def run_campaign(telemetry=NO_TELEMETRY, params=TINY, **kwargs):
    out = io.StringIO()
    result = campaign.run_all(params, ["gups"], out=out,
                              progress=io.StringIO(), telemetry=telemetry,
                              **kwargs)
    return result, out.getvalue()


def read_stream(path):
    events = [json.loads(line) for line in path.read_text().splitlines()]
    for event in events:
        validate_status_event(event)  # schema-golden: raises on drift
    return events


def parse_prom(path):
    samples = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


def parse_dashboard(path):
    html = path.read_text()
    payload = re.search(
        r'<script type="application/json" id="data">(.*?)</script>',
        html, re.S).group(1)
    return json.loads(payload.replace("<\\/", "</"))


class TestSerialCampaignStream:
    def test_stream_is_schema_valid_and_reconciles(self, tmp_path):
        telemetry = CampaignTelemetry(
            status_path=str(tmp_path / "status.ndjson"),
            export_dir=str(tmp_path))
        result, _ = run_campaign(telemetry=telemetry,
                                 checkpoint_path=str(tmp_path / "ck.jsonl"))
        events = read_stream(tmp_path / "status.ndjson")
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_end"
        (workloads,) = [e for e in events if e["event"] == "workloads"]
        assert workloads["compiled"] > 0

        end = events[-1]
        start = events[0]
        assert not [name for name in end if name.startswith("cache")]
        # Terminal tallies reconcile with the CampaignResult...
        assert end["completed"] == result.simulated
        assert end["failed"] == len(result.failures)
        assert end["restored"] == result.restored
        assert end["simulated"] == result.simulated
        # ...and with the planned-run count (duplicates collapsed).
        assert end["completed"] + end["failed"] + end["restored"] \
            == start["total_runs"]
        # Every dispatched run reached exactly one terminal event.
        ends = [e for e in events if e["event"] == "run_end"]
        assert len(ends) == start["total_runs"]
        assert len({e["key"] for e in ends}) == len(ends)
        # ...and the checkpoint store holds exactly those runs.
        store = CheckpointStore(str(tmp_path / "ck.jsonl"), load=True)
        assert len(store) == end["completed"]

    def test_event_key_sequence_is_deterministic(self, tmp_path):
        sequences = []
        for tag in ("a", "b"):
            telemetry = CampaignTelemetry(
                status_path=str(tmp_path / f"status-{tag}.ndjson"))
            run_campaign(telemetry=telemetry)
            events = read_stream(tmp_path / f"status-{tag}.ndjson")
            sequences.append([(e["event"], e.get("key"))
                              for e in events if e["event"] != "heartbeat"])
        # Timestamps and durations differ; the projected (event, key)
        # order of a serial campaign may not.
        assert sequences[0] == sequences[1]

    def test_measurements_recorded_for_every_run(self, tmp_path):
        telemetry = CampaignTelemetry(
            status_path=str(tmp_path / "status.ndjson"))
        result, _ = run_campaign(telemetry=telemetry)
        events = read_stream(tmp_path / "status.ndjson")
        ends = [e for e in events if e["event"] == "run_end"]
        # Every simulated run ends with its own wall and CPU seconds.
        assert len(ends) == result.simulated > 0
        assert all(e["wall_s"] >= 0 and e["cpu_s"] >= 0 for e in ends)
        assert not [e for e in events if "predicted_s" in e]


class TestReportUnperturbed:
    def test_report_bytes_identical_with_and_without_telemetry(
            self, tmp_path):
        _, bare = run_campaign()
        telemetry = CampaignTelemetry(
            status_path=str(tmp_path / "status.ndjson"),
            export_dir=str(tmp_path))
        _, instrumented = run_campaign(telemetry=telemetry)
        assert instrumented == bare

    def test_null_telemetry_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_campaign()  # NO_TELEMETRY default
        assert list(tmp_path.iterdir()) == []


class TestArtifacts:
    @pytest.fixture(scope="class")
    def campaign_artifacts(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("telemetry")
        telemetry = CampaignTelemetry(
            status_path=str(tmp_path / "status.ndjson"),
            export_dir=str(tmp_path))
        result, _ = run_campaign(telemetry=telemetry)
        return tmp_path, result

    def test_prometheus_counters_reconcile(self, campaign_artifacts):
        tmp_path, result = campaign_artifacts
        samples = parse_prom(tmp_path / PROMETHEUS_FILENAME)
        assert samples['pomtlb_campaign_runs_total{state="ok"}'] \
            == result.simulated
        assert samples["pomtlb_campaign_runs_planned"] == result.simulated
        # One compile per distinct (benchmark, cores, refs, seed, scale).
        distinct = {(r.benchmark, r.params.num_cores,
                     r.params.refs_per_core, r.params.seed, r.params.scale)
                    for r in campaign.campaign_requests(TINY, ["gups"])}
        assert samples["pomtlb_campaign_workloads_compiled_total"] \
            == len(distinct) > 1
        assert not [name for name in samples if "cache" in name]

    def test_dashboard_reconciles_with_result(self, campaign_artifacts):
        tmp_path, result = campaign_artifacts
        doc = parse_dashboard(tmp_path / DASHBOARD_FILENAME)
        summary = doc["summary"]
        assert summary["completed"] == result.simulated
        assert summary["failed"] == len(result.failures)
        assert summary["restored"] == result.restored
        assert summary["total_runs"] == summary["completed"] \
            + summary["failed"] + summary["restored"]
        assert len(doc["runs"]) == summary["total_runs"]
        assert "lpt" not in doc

    def test_dashboard_is_self_contained(self, campaign_artifacts):
        tmp_path, _ = campaign_artifacts
        html = (tmp_path / DASHBOARD_FILENAME).read_text()
        assert not re.search(r'(src|href)\s*=\s*["\'](https?:)?//', html)


class TestFailuresAndRetries:
    def test_failed_runs_counted_and_carry_errors(self, tmp_path):
        telemetry = CampaignTelemetry(
            status_path=str(tmp_path / "status.ndjson"))
        plan = FaultPlan.parse("crash@gups/pom#*")
        result, _ = run_campaign(telemetry=telemetry, faults=plan)
        assert result.failures
        events = read_stream(tmp_path / "status.ndjson")
        failed = [e for e in events
                  if e["event"] == "run_end" and e["state"] == "failed"]
        assert len(failed) == len(result.failures)
        assert all("WorkerCrash" in e["error"] for e in failed)
        assert events[-1]["failed"] == len(result.failures)

    def test_retries_emit_run_retry_events(self, tmp_path):
        telemetry = CampaignTelemetry(
            status_path=str(tmp_path / "status.ndjson"))
        retrying = ExperimentParams(num_cores=1, refs_per_core=300,
                                    scale=0.02, seed=5, max_retries=1,
                                    retry_backoff_s=0.0)
        plan = FaultPlan.parse("crash@gups/pom#1")  # first attempt only
        result, _ = run_campaign(telemetry=telemetry, params=retrying,
                                 faults=plan)
        assert not result.failures
        events = read_stream(tmp_path / "status.ndjson")
        retries = [e for e in events if e["event"] == "run_retry"]
        assert len(retries) == 1
        assert "WorkerCrash" in retries[0]["error"]
        assert events[-1]["retries"] == 1


class TestRestoredRuns:
    def test_resumed_campaign_reports_restored(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        first, _ = run_campaign(checkpoint_path=path)
        telemetry = CampaignTelemetry(
            status_path=str(tmp_path / "status.ndjson"))
        resumed, _ = run_campaign(telemetry=telemetry, checkpoint_path=path,
                                  resume=True)
        assert resumed.simulated == 0
        events = read_stream(tmp_path / "status.ndjson")
        assert events[-1]["restored"] == first.simulated
        assert events[-1]["completed"] == 0
        restored = [e for e in events if e["event"] == "run_end"]
        assert all(e["state"] == "restored" for e in restored)


class TestPooledCampaign:
    def test_pooled_campaign_produces_all_artifacts(self, tmp_path):
        pooled = ExperimentParams(num_cores=1, refs_per_core=300,
                                  scale=0.02, seed=5, workers=2,
                                  max_retries=0, retry_backoff_s=0.0)
        telemetry = CampaignTelemetry(
            status_path=str(tmp_path / "status.ndjson"),
            export_dir=str(tmp_path))
        result, _ = run_campaign(telemetry=telemetry, params=pooled)
        assert not result.failures
        events = read_stream(tmp_path / "status.ndjson")
        starts = [e for e in events if e["event"] == "run_start"]
        assert starts and all(e["mode"] == "pool" for e in starts)
        ends = [e for e in events
                if e["event"] == "run_end" and e["state"] == "ok"]
        assert len(ends) == result.simulated
        # Worker-measured spans rode the result pipe to the parent.
        assert all(e["wall_s"] > 0 for e in ends)
        assert all(e["cpu_s"] is not None for e in ends)
        assert (tmp_path / PROMETHEUS_FILENAME).exists()
        assert (tmp_path / DASHBOARD_FILENAME).exists()


class TestReplayIsTheOneSource:
    """Replaying status.ndjson reproduces both exported artifacts."""

    POOLED = ExperimentParams(num_cores=1, refs_per_core=300, scale=0.02,
                              seed=5, workers=2, max_retries=0,
                              retry_backoff_s=0.0)

    def campaign(self, tmp_path, **kwargs):
        telemetry = CampaignTelemetry(
            status_path=str(tmp_path / "status.ndjson"),
            export_dir=str(tmp_path))
        result, _ = run_campaign(telemetry=telemetry, params=self.POOLED,
                                 checkpoint_path=str(tmp_path / "ck.jsonl"),
                                 **kwargs)
        replayed = StatusSnapshot()
        with open(tmp_path / "status.ndjson") as stream:
            for line in stream:
                replayed.apply_line(line)
        return result, replayed

    def test_replayed_stream_reproduces_the_artifacts(self, tmp_path):
        result, replayed = self.campaign(tmp_path)
        assert not result.failures
        prom = (tmp_path / PROMETHEUS_FILENAME).read_text()
        assert prometheus_text(replayed) == prom
        assert dashboard_document(replayed) == \
            parse_dashboard(tmp_path / DASHBOARD_FILENAME)
        ends = replayed.rows("ok")
        assert len(ends) == result.simulated
        assert all(e["checkpoint"] is True for e in ends)
        assert f"pomtlb_campaign_checkpoint_writes_total " \
            f"{result.simulated}\n" in prom

    def test_failed_checkpoint_write_is_on_the_stream(self, tmp_path):
        result, replayed = self.campaign(
            tmp_path, faults=FaultPlan.parse("ckpt-io#1"))
        assert not result.failures  # the run is kept either way
        prom = (tmp_path / PROMETHEUS_FILENAME).read_text()
        assert prometheus_text(replayed) == prom
        assert "pomtlb_campaign_checkpoint_write_failures_total 1\n" in prom
        (lost,) = [e for e in replayed.rows() if e["checkpoint"] is False]
        assert lost["state"] == "ok"


class TestCli:
    ARGS = ["campaign", "--benchmarks", "gups", "--cores", "1",
            "--refs", "300", "--scale", "0.02", "--seed", "5",
            "--max-retries", "0", "--retry-backoff", "0"]

    def test_status_out_flag_end_to_end(self, tmp_path, capsys):
        status = tmp_path / "status.ndjson"
        code = cli.main(self.ARGS + ["--status-out", str(status),
                                     "--telemetry-dir", str(tmp_path),
                                     "--output",
                                     str(tmp_path / "report.txt")])
        capsys.readouterr()
        assert code == 0
        events = read_stream(status)
        assert events[-1]["event"] == "campaign_end"
        assert (tmp_path / PROMETHEUS_FILENAME).exists()
        assert (tmp_path / DASHBOARD_FILENAME).exists()

    def test_unusable_telemetry_dir_fails_before_simulating(
            self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        report = tmp_path / "report.txt"
        code = cli.main(self.ARGS + ["--telemetry-dir", str(blocker),
                                     "--output", str(report)])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot create --telemetry-dir" in captured.err
        assert "Traceback" not in captured.err
        assert not report.exists()
        assert captured.out == ""  # no run was simulated or reported

    def test_telemetry_flags_rejected_outside_campaign(self, capsys):
        assert cli.main(["fig8", "--status-out", "x.ndjson"]) == 2
        assert "--status-out" in capsys.readouterr().err
        assert cli.main(["fig8", "--telemetry-dir", "d"]) == 2

    def test_top_renders_finished_stream(self, tmp_path, capsys):
        status = tmp_path / "status.ndjson"
        cli.main(self.ARGS + ["--status-out", str(status),
                              "--output", str(tmp_path / "report.txt"),
                              "--telemetry-dir", str(tmp_path)])
        capsys.readouterr()
        assert cli.main(["top", str(status)]) == 0
        view = capsys.readouterr().out
        assert "POM-TLB campaign [finished]" in view
        assert "failed" in view and "100%" in view

    def test_top_missing_file_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["top", str(tmp_path / "nope.ndjson")]) == 2
        assert "cannot open" in capsys.readouterr().err
