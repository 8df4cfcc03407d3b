"""Exporters: Prometheus text exposition and the self-contained dashboard."""

import json
import re

from repro.obs import CampaignTelemetry, StatusSnapshot
from repro.obs.exporters import (
    DASHBOARD_FILENAME,
    PROMETHEUS_FILENAME,
    dashboard_document,
    dashboard_html,
    metric_families,
    prometheus_text,
    write_dashboard,
    write_prometheus,
)
from repro.obs.telemetry import STATUS_VERSION


class _Request:
    def __init__(self, benchmark="gups", scheme="pom"):
        self.benchmark = benchmark
        self.scheme = scheme


def populated_telemetry():
    """A hub that touches every metric family (no stream, no exporters).

    Dispatch in both modes, a retry, one checkpoint write that succeeds
    and one that fails, a failed run and a restored one, on fixed clocks
    and dyadic durations so every sum is exact.
    """
    clock = [100.0]
    hub = CampaignTelemetry(clock=lambda: clock[0],
                            wall=lambda: 1700000000.0)
    hub.campaign_start(4, 2)
    hub.workloads_compiled(2)
    hub.predict("k1", 0.5)
    hub.predict("k4", 1.0)
    hub.run_dispatched("k1", _Request(), attempt=1, mode="pool")
    hub.run_retry("k1", _Request(), attempt=1, error="RunTimeout: slow",
                  delay_s=0.25)
    hub.run_dispatched("k1", _Request(), attempt=2, mode="pool")
    clock[0] += 2.5
    hub.run_finished("k1", _Request(), ok=True, attempts=2, wall_s=1.0,
                     cpu_s=0.75, checkpoint=True)
    hub.run_dispatched("k2", _Request("mcf", "tsb"), attempt=1,
                       mode="serial")
    hub.run_finished("k2", _Request("mcf", "tsb"), ok=False, attempts=1,
                     wall_s=0.25, error="WorkerCrash: signal 9")
    hub.run_dispatched("k4", _Request("mcf"), attempt=1, mode="serial")
    hub.run_finished("k4", _Request("mcf"), ok=True, attempts=1,
                     wall_s=0.5, cpu_s=0.25, checkpoint=False)
    hub.run_restored("k3", _Request("mcf"))
    hub.heartbeat(queued=0, running=0)
    hub.campaign_end(simulated=3)
    return hub


def snapshot_of(*events):
    """A snapshot fed ``(event type, fields)`` pairs directly."""
    snapshot = StatusSnapshot()
    for etype, fields in events:
        snapshot.apply({"v": STATUS_VERSION, "event": etype, "t": 0.0,
                        "ts": 0.0, **fields})
    return snapshot


def run_end(key, state="ok", scheme="pom", wall_s=0.5):
    return ("run_end", {"key": key, "benchmark": "gups", "scheme": scheme,
                        "state": state, "attempts": 1, "wall_s": wall_s,
                        "cpu_s": None, "predicted_s": None, "error": None})


#: ``prometheus_text`` of :func:`populated_telemetry`, pinned byte for byte
#: from the output of the metrics registry the snapshot families replaced.
PINNED_PROMETHEUS = """\
# HELP pomtlb_campaign_attempts_total Run attempts dispatched (retries included).
# TYPE pomtlb_campaign_attempts_total counter
pomtlb_campaign_attempts_total{mode="pool"} 2
pomtlb_campaign_attempts_total{mode="serial"} 2
# HELP pomtlb_campaign_checkpoint_skips_total Runs satisfied from the checkpoint store (no simulation).
# TYPE pomtlb_campaign_checkpoint_skips_total counter
pomtlb_campaign_checkpoint_skips_total 1
# HELP pomtlb_campaign_checkpoint_write_failures_total Checkpoint writes that failed (campaign continued without durability for that run).
# TYPE pomtlb_campaign_checkpoint_write_failures_total counter
pomtlb_campaign_checkpoint_write_failures_total 1
# HELP pomtlb_campaign_checkpoint_writes_total Finished runs persisted to the checkpoint store.
# TYPE pomtlb_campaign_checkpoint_writes_total counter
pomtlb_campaign_checkpoint_writes_total 1
# HELP pomtlb_campaign_elapsed_seconds Campaign wall-clock (monotonic).
# TYPE pomtlb_campaign_elapsed_seconds gauge
pomtlb_campaign_elapsed_seconds 2.5
# HELP pomtlb_campaign_lpt_bias LPT scheduler mean signed relative error.
# TYPE pomtlb_campaign_lpt_bias gauge
pomtlb_campaign_lpt_bias 0.25
# HELP pomtlb_campaign_lpt_mape LPT scheduler mean absolute percentage error.
# TYPE pomtlb_campaign_lpt_mape gauge
pomtlb_campaign_lpt_mape 0.75
# HELP pomtlb_campaign_lpt_runs Runs with a predicted-vs-actual calibration record.
# TYPE pomtlb_campaign_lpt_runs gauge
pomtlb_campaign_lpt_runs 2
# HELP pomtlb_campaign_retries_total Transient failures scheduled for another attempt.
# TYPE pomtlb_campaign_retries_total counter
pomtlb_campaign_retries_total 1
# HELP pomtlb_campaign_run_cpu_seconds Per-run worker CPU time.
# TYPE pomtlb_campaign_run_cpu_seconds summary
pomtlb_campaign_run_cpu_seconds_count{scheme="pom"} 2
pomtlb_campaign_run_cpu_seconds_sum{scheme="pom"} 1
# HELP pomtlb_campaign_run_wall_seconds Per-run wall-clock duration.
# TYPE pomtlb_campaign_run_wall_seconds summary
pomtlb_campaign_run_wall_seconds_count{scheme="pom"} 2
pomtlb_campaign_run_wall_seconds_sum{scheme="pom"} 1.5
pomtlb_campaign_run_wall_seconds_count{scheme="tsb"} 1
pomtlb_campaign_run_wall_seconds_sum{scheme="tsb"} 0.25
# HELP pomtlb_campaign_runs_planned Runs the campaign enumerated up front.
# TYPE pomtlb_campaign_runs_planned gauge
pomtlb_campaign_runs_planned 4
# HELP pomtlb_campaign_runs_queued_total Distinct runs accepted by the executor.
# TYPE pomtlb_campaign_runs_queued_total counter
pomtlb_campaign_runs_queued_total 3
# HELP pomtlb_campaign_runs_total Terminal run states.
# TYPE pomtlb_campaign_runs_total counter
pomtlb_campaign_runs_total{state="failed"} 1
pomtlb_campaign_runs_total{state="ok"} 2
pomtlb_campaign_runs_total{state="restored"} 1
# HELP pomtlb_campaign_worker_busy_seconds Attempt durations summed across the pool.
# TYPE pomtlb_campaign_worker_busy_seconds summary
pomtlb_campaign_worker_busy_seconds_count 3
pomtlb_campaign_worker_busy_seconds_sum 1.75
# HELP pomtlb_campaign_workers Process-pool width of this campaign.
# TYPE pomtlb_campaign_workers gauge
pomtlb_campaign_workers 2
# HELP pomtlb_campaign_workloads_compiled_total Distinct workloads compiled this campaign.
# TYPE pomtlb_campaign_workloads_compiled_total counter
pomtlb_campaign_workloads_compiled_total 2
"""


class TestPrometheusText:
    def test_pinned_output_for_every_family(self):
        assert prometheus_text(populated_telemetry().snapshot) \
            == PINNED_PROMETHEUS

    def test_counters_with_help_type_and_labels(self):
        snapshot = snapshot_of(*[run_end(f"k{i}") for i in range(4)],
                               run_end("k9", state="failed"))
        text = prometheus_text(snapshot)
        assert "# HELP pomtlb_campaign_runs_total Terminal run states.\n" \
            in text
        assert "# TYPE pomtlb_campaign_runs_total counter\n" in text
        assert 'pomtlb_campaign_runs_total{state="failed"} 1\n' in text
        assert 'pomtlb_campaign_runs_total{state="ok"} 4\n' in text

    def test_summary_exposes_count_and_sum(self):
        snapshot = snapshot_of(run_end("a", wall_s=0.25),
                               run_end("b", wall_s=0.5))
        text = prometheus_text(snapshot)
        name = "pomtlb_campaign_run_wall_seconds"
        assert f"# TYPE {name} summary\n" in text
        assert f'{name}_count{{scheme="pom"}} 2\n' in text
        assert f'{name}_sum{{scheme="pom"}} 0.75\n' in text

    def test_label_values_escaped(self):
        snapshot = snapshot_of(run_end("k", scheme='say "hi"\nback\\slash'))
        text = prometheus_text(snapshot)
        assert r'scheme="say \"hi\"\nback\\slash"' in text

    def test_integers_render_without_exponent_or_decimal(self):
        snapshot = snapshot_of(("campaign_end", {
            "elapsed_s": 5.0, "completed": 0, "failed": 0, "restored": 0,
            "retries": 0, "simulated": 0}))
        assert "\npomtlb_campaign_elapsed_seconds 5\n" \
            in prometheus_text(snapshot)

    def test_format_parses_line_by_line(self):
        # Every non-comment line: <name>{labels}? <value>
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+$")
        text = prometheus_text(populated_telemetry().snapshot)
        for line in text.splitlines():
            if not line.startswith("#"):
                assert sample.match(line), line

    def test_write_prometheus_creates_named_file(self, tmp_path):
        path = write_prometheus(populated_telemetry().snapshot,
                                str(tmp_path / "sub"))
        assert path.endswith(PROMETHEUS_FILENAME)
        assert "pomtlb_campaign_runs_total" in open(path).read()


class TestMetricFamilies:
    """The families are derived from the snapshot's events alone."""

    def families(self):
        return {name: (kind, dict(series)) for name, kind, _, series
                in metric_families(populated_telemetry().snapshot)}

    def test_counter_gauge_summary(self):
        families = self.families()
        assert families["pomtlb_campaign_runs_queued_total"] == \
            ("counter", {(): 3})
        assert families["pomtlb_campaign_workers"] == ("gauge", {(): 2})
        kind, series = families["pomtlb_campaign_worker_busy_seconds"]
        assert kind == "summary" and series[()] == [1.0, 0.25, 0.5]

    def test_labels_create_distinct_series(self):
        _, series = self.families()["pomtlb_campaign_attempts_total"]
        assert series == {(("mode", "pool"),): 2, (("mode", "serial"),): 2}
        _, series = self.families()["pomtlb_campaign_run_cpu_seconds"]
        assert series == {(("scheme", "pom"),): [0.75, 0.25]}

    def test_families_appear_once_their_source_is_seen(self):
        assert prometheus_text(StatusSnapshot()) == "\n"
        names = [name for name, *_ in metric_families(
            snapshot_of(run_end("k", state="restored")))]
        assert names == ["pomtlb_campaign_checkpoint_skips_total",
                         "pomtlb_campaign_runs_total"]

    def test_dashboard_metrics_round_trip_through_json(self):
        metrics = dashboard_document(populated_telemetry().snapshot)[
            "metrics"]
        assert json.loads(json.dumps(metrics)) == metrics
        (wall,) = [entry for entry in metrics[
            "pomtlb_campaign_run_wall_seconds"]["series"]
            if entry["labels"] == {"scheme": "pom"}]
        assert wall == {"labels": {"scheme": "pom"}, "count": 2,
                        "sum": 1.5, "min": 0.5, "max": 1.0}


class TestDashboardDocument:
    def test_summary_reconciles_with_counts(self):
        doc = dashboard_document(populated_telemetry().snapshot)
        summary = doc["summary"]
        assert summary["completed"] == 2
        assert summary["failed"] == 1
        assert summary["restored"] == 1
        assert summary["total_runs"] == 4
        assert summary["completed"] + summary["failed"] \
            + summary["restored"] == summary["total_runs"]
        assert summary["busy_seconds"] == 1.75
        assert not any(name.startswith("cache") for name in summary)
        assert doc["metrics"][
            "pomtlb_campaign_workloads_compiled_total"]["series"][0][
                "value"] == 2

    def test_runs_sorted_and_carry_calibration(self):
        doc = dashboard_document(populated_telemetry().snapshot)
        keys = [(r["benchmark"], r["scheme"]) for r in doc["runs"]]
        assert keys == sorted(keys)
        ok = [r for r in doc["runs"] if r["state"] == "ok"][0]
        assert ok["predicted_s"] == 0.5 and ok["wall_s"] == 1.0
        assert ok["checkpoint"] is True
        assert doc["lpt"]["runs"] == 2

    def test_document_is_json_serializable(self):
        doc = dashboard_document(populated_telemetry().snapshot)
        assert json.loads(json.dumps(doc)) == doc


class TestDashboardHtml:
    def test_self_contained_no_external_references(self):
        html = dashboard_html(
            dashboard_document(populated_telemetry().snapshot))
        assert not re.search(r'(src|href)\s*=\s*["\'](https?:)?//', html)
        assert "<script" in html and "<style>" in html

    def test_inline_json_round_trips(self):
        snapshot = populated_telemetry().snapshot
        html = dashboard_html(dashboard_document(snapshot))
        match = re.search(
            r'<script type="application/json" id="data">(.*?)</script>',
            html, re.S)
        assert match
        parsed = json.loads(match.group(1))
        assert parsed == dashboard_document(snapshot)

    def test_script_close_tag_escaped_in_payload(self):
        snapshot = populated_telemetry().snapshot
        snapshot.ends["k2"]["error"] = "boom </script><script>alert(1)"
        html = dashboard_html(dashboard_document(snapshot))
        payload = re.search(
            r'<script type="application/json" id="data">(.*?)</script>',
            html, re.S).group(1)
        assert "</script" not in payload
        assert "<\\/script" in payload

    def test_write_dashboard_creates_named_file(self, tmp_path):
        path = write_dashboard(populated_telemetry().snapshot, str(tmp_path))
        assert path.endswith(DASHBOARD_FILENAME)
        text = open(path).read()
        assert text.startswith("<!DOCTYPE html>")
        assert "__DATA__" not in text
