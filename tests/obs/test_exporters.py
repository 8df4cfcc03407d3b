"""Exporters: Prometheus text exposition and the self-contained dashboard."""

import json
import re

from repro.obs import CampaignTelemetry, MetricsRegistry
from repro.obs.exporters import (
    DASHBOARD_FILENAME,
    PROMETHEUS_FILENAME,
    dashboard_document,
    dashboard_html,
    prometheus_text,
    write_dashboard,
    write_prometheus,
)


class _Request:
    def __init__(self, benchmark="gups", scheme="pom"):
        self.benchmark = benchmark
        self.scheme = scheme


def populated_telemetry():
    """A hub with every metric kind exercised (no stream, no exporters)."""
    clock = [100.0]
    hub = CampaignTelemetry(clock=lambda: clock[0],
                            wall=lambda: 1700000000.0)
    hub.campaign_start(3, 2)
    hub.workloads_compiled(2)
    hub.predict("k1", 0.5)
    clock[0] += 2.0
    hub.run_finished("k1", _Request(), ok=True, attempts=1, wall_s=1.0,
                     cpu_s=0.8)
    hub.run_finished("k2", _Request("mcf", "tsb"), ok=False, attempts=2,
                     wall_s=0.2, error="WorkerCrash: signal 9")
    hub.run_restored("k3", _Request("mcf"))
    hub.heartbeat(queued=0, running=0)
    hub.campaign_end(simulated=2)
    return hub


class TestPrometheusText:
    def test_counters_with_help_type_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("pomtlb_runs_total", "Terminal states.",
                         state="ok").inc(4)
        registry.counter("pomtlb_runs_total", state="failed").inc()
        text = prometheus_text(registry)
        assert "# HELP pomtlb_runs_total Terminal states.\n" in text
        assert "# TYPE pomtlb_runs_total counter\n" in text
        assert 'pomtlb_runs_total{state="failed"} 1\n' in text
        assert 'pomtlb_runs_total{state="ok"} 4\n' in text

    def test_summary_exposes_count_and_sum(self):
        registry = MetricsRegistry()
        summary = registry.summary("pomtlb_wall_seconds", "Wall.",
                                   scheme="pom")
        summary.observe(0.25)
        summary.observe(0.5)
        text = prometheus_text(registry)
        assert "# TYPE pomtlb_wall_seconds summary\n" in text
        assert 'pomtlb_wall_seconds_count{scheme="pom"} 2\n' in text
        assert 'pomtlb_wall_seconds_sum{scheme="pom"} 0.75\n' in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", source='say "hi"\nback\\slash').inc()
        text = prometheus_text(registry)
        assert r'source="say \"hi\"\nback\\slash"' in text

    def test_integers_render_without_exponent_or_decimal(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5.0)
        assert "\ng 5\n" in prometheus_text(registry)

    def test_format_parses_line_by_line(self):
        # Every non-comment line: <name>{labels}? <value>
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+$")
        text = prometheus_text(populated_telemetry().registry)
        for line in text.splitlines():
            if not line.startswith("#"):
                assert sample.match(line), line

    def test_write_prometheus_creates_named_file(self, tmp_path):
        path = write_prometheus(populated_telemetry().registry,
                                str(tmp_path / "sub"))
        assert path.endswith(PROMETHEUS_FILENAME)
        assert "pomtlb_campaign_runs_total" in open(path).read()


class TestDashboardDocument:
    def test_summary_reconciles_with_counts(self):
        doc = dashboard_document(populated_telemetry())
        summary = doc["summary"]
        assert summary["completed"] == 1
        assert summary["failed"] == 1
        assert summary["restored"] == 1
        assert summary["total_runs"] == 3
        assert summary["completed"] + summary["failed"] \
            + summary["restored"] == summary["total_runs"]
        assert not any(name.startswith("cache") for name in summary)
        assert doc["metrics"][
            "pomtlb_campaign_workloads_compiled_total"]["series"][0][
                "value"] == 2

    def test_runs_sorted_and_carry_calibration(self):
        doc = dashboard_document(populated_telemetry())
        keys = [(r["benchmark"], r["scheme"]) for r in doc["runs"]]
        assert keys == sorted(keys)
        ok = [r for r in doc["runs"] if r["state"] == "ok"][0]
        assert ok["predicted_s"] == 0.5 and ok["wall_s"] == 1.0
        assert doc["lpt"]["runs"] == 1

    def test_document_is_json_serializable(self):
        doc = dashboard_document(populated_telemetry())
        assert json.loads(json.dumps(doc)) == json.loads(json.dumps(doc))


class TestDashboardHtml:
    def test_self_contained_no_external_references(self):
        html = dashboard_html(dashboard_document(populated_telemetry()))
        assert not re.search(r'(src|href)\s*=\s*["\'](https?:)?//', html)
        assert "<script" in html and "<style>" in html

    def test_inline_json_round_trips(self):
        hub = populated_telemetry()
        html = dashboard_html(dashboard_document(hub))
        match = re.search(
            r'<script type="application/json" id="data">(.*?)</script>',
            html, re.S)
        assert match
        parsed = json.loads(match.group(1))
        assert parsed == json.loads(
            json.dumps(dashboard_document(hub), sort_keys=True))

    def test_script_close_tag_escaped_in_payload(self):
        hub = populated_telemetry()
        hub.runs["k2"]["error"] = "boom </script><script>alert(1)"
        html = dashboard_html(dashboard_document(hub))
        payload = re.search(
            r'<script type="application/json" id="data">(.*?)</script>',
            html, re.S).group(1)
        assert "</script" not in payload
        assert "<\\/script" in payload

    def test_write_dashboard_creates_named_file(self, tmp_path):
        path = write_dashboard(populated_telemetry(), str(tmp_path))
        assert path.endswith(DASHBOARD_FILENAME)
        text = open(path).read()
        assert text.startswith("<!DOCTYPE html>")
        assert "__DATA__" not in text
