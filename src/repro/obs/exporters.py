"""Campaign telemetry exporters: Prometheus text and an HTML dashboard.

Both are pure functions of a :class:`~repro.obs.telemetry.StatusSnapshot`
— the campaign hub's own, or one replayed from a ``--status-out``
stream, which yields the same bytes.  Two artifacts, both written
atomically next to the campaign output
(:func:`repro.common.fileio.atomic_write_text`, the same temp-file +
rename idiom as every other persisted file):

* ``campaign_metrics.prom`` — the standard Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` / samples), so a node exporter's
  textfile collector or any scrape-adjacent tooling ingests campaign
  metrics with zero glue.  Summaries expose the conventional
  ``_count`` / ``_sum`` pair.
* ``campaign_dashboard.html`` — a single self-contained file (inline
  JSON + a few hundred bytes of vanilla JS, no external assets) in the
  llm-d ``benchmark_report`` idiom: stat tiles, run table, heartbeat
  sparklines, and the raw metric families for drill-down.  Open it
  from a laptop, attach it to CI, or archive it with the campaign
  output — it renders anywhere.

Metric names, dashboard fields and the file contract are documented in
EXPERIMENTS.md ("Campaign telemetry").
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from typing import Dict, List

from ..common.fileio import atomic_write_text

#: File names, fixed so CI artifact globs and docs stay stable.
PROMETHEUS_FILENAME = "campaign_metrics.prom"
DASHBOARD_FILENAME = "campaign_dashboard.html"


# -- metric families -----------------------------------------------------------

def _scalar(value) -> list:
    return [] if value is None else [({}, value)]


def _by(label: str, values: Dict[str, object]) -> list:
    return [({label: name}, value) for name, value in values.items()]


def metric_families(snapshot) -> List[tuple]:
    """``(name, kind, help, series)`` per metric family, sorted by name.

    ``series`` is ``[(labels, value), ...]`` sorted by labels, with
    ``labels`` a sorted tuple of ``(name, value)`` pairs; a summary's
    value is the list of its observations (the matching ``run_end``
    fields, in arrival order).  A counter appears once it is non-zero,
    a gauge once its source event has been seen.
    """
    simulated = snapshot.rows("ok", "failed")
    states = Counter(event["state"] for event in snapshot.ends.values())
    checkpoints = Counter(event.get("checkpoint")
                          for event in snapshot.ends.values())
    wall, cpu = defaultdict(list), defaultdict(list)
    for event in simulated:
        wall[event["scheme"]].append(event["wall_s"])
        if event["cpu_s"] is not None:
            cpu[event["scheme"]].append(event["cpu_s"])
    start, end = snapshot.start, snapshot.end
    busy = [max(0.0, event["wall_s"]) for event in simulated]
    families = [
        ("pomtlb_campaign_attempts_total", "counter",
         "Run attempts dispatched (retries included).",
         _by("mode", snapshot.attempts)),
        ("pomtlb_campaign_checkpoint_skips_total", "counter",
         "Runs satisfied from the checkpoint store (no simulation).",
         _scalar(states["restored"] or None)),
        ("pomtlb_campaign_checkpoint_write_failures_total", "counter",
         "Checkpoint writes that failed (campaign continued without "
         "durability for that run).",
         _scalar(checkpoints[False] or None)),
        ("pomtlb_campaign_checkpoint_writes_total", "counter",
         "Finished runs persisted to the checkpoint store.",
         _scalar(checkpoints[True] or None)),
        ("pomtlb_campaign_elapsed_seconds", "gauge",
         "Campaign wall-clock (monotonic).",
         _scalar(end["elapsed_s"] if end else None)),
        ("pomtlb_campaign_retries_total", "counter",
         "Transient failures scheduled for another attempt.",
         _scalar(snapshot.retries or None)),
        ("pomtlb_campaign_run_cpu_seconds", "summary",
         "Per-run worker CPU time.", _by("scheme", cpu)),
        ("pomtlb_campaign_run_wall_seconds", "summary",
         "Per-run wall-clock duration.", _by("scheme", wall)),
        ("pomtlb_campaign_runs_planned", "gauge",
         "Runs the campaign enumerated up front.",
         _scalar(snapshot.total_runs if start else None)),
        ("pomtlb_campaign_runs_queued_total", "counter",
         "Distinct runs accepted by the executor.",
         _scalar(len(snapshot.dispatched) or None)),
        ("pomtlb_campaign_runs_total", "counter", "Terminal run states.",
         _by("state", states)),
        ("pomtlb_campaign_worker_busy_seconds", "summary",
         "Attempt durations summed across the pool.",
         _scalar(busy or None)),
        ("pomtlb_campaign_workers", "gauge",
         "Process-pool width of this campaign.",
         _scalar(snapshot.workers if start else None)),
        ("pomtlb_campaign_workloads_compiled_total", "counter",
         "Distinct workloads compiled this campaign.",
         _scalar(snapshot.compiled if snapshot.workloads else None)),
    ]
    return [(name, kind, help_text,
             sorted(((tuple(sorted(labels.items())), value)
                     for labels, value in series), key=lambda s: s[0]))
            for name, kind, help_text, series
            in sorted(families, key=lambda family: family[0]) if series]


# -- Prometheus text exposition ------------------------------------------------

def _format_value(value: float) -> str:
    if isinstance(value, bool):  # bool is an int; be explicit
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_block(labels) -> str:
    if not labels:
        return ""
    pairs = ",".join(f'{name}="{_escape_label(value)}"'
                     for name, value in labels)
    return "{" + pairs + "}"


def prometheus_text(snapshot) -> str:
    """The snapshot in Prometheus text exposition format (0.0.4)."""
    lines: List[str] = []
    for name, kind, help_text, series in metric_families(snapshot):
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in series:
            block = _label_block(labels)
            if kind == "summary":
                lines.append(f"{name}_count{block} {len(value)}")
                lines.append(f"{name}_sum{block} "
                             f"{_format_value(sum(value))}")
            else:
                lines.append(f"{name}{block} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def write_prometheus(snapshot, directory: str) -> str:
    """Write ``campaign_metrics.prom`` into ``directory``; returns path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, PROMETHEUS_FILENAME)
    atomic_write_text(path, prometheus_text(snapshot))
    return path


# -- dashboard document --------------------------------------------------------

def _family_dict(families) -> Dict[str, object]:
    """The metric families as JSON (the dashboard's raw panel)."""
    document: Dict[str, object] = {}
    for name, kind, help_text, series in families:
        entries = []
        for labels, value in series:
            entry: Dict[str, object] = {"labels": dict(labels)}
            if kind == "summary":
                entry.update(count=len(value), sum=sum(value),
                             min=min(value), max=max(value))
            else:
                entry["value"] = value
            entries.append(entry)
        document[name] = {"type": kind, "help": help_text,
                          "series": entries}
    return document


def dashboard_document(snapshot) -> Dict[str, object]:
    """The inline-JSON document the dashboard renders (and tests read).

    Everything the HTML shows comes from this one structure, so the
    reconciliation contract ("dashboard counters equal the campaign
    report's") is checkable by parsing the JSON back out of the file.
    """
    runs = sorted(snapshot.rows(),
                  key=lambda r: (r["benchmark"], r["scheme"], r["key"]))
    return {
        "version": 4,
        "summary": {
            "total_runs": snapshot.total_runs,
            "workers": snapshot.workers,
            "completed": snapshot.completed,
            "failed": snapshot.failed,
            "restored": snapshot.restored,
            "retries": snapshot.retries,
            "busy_seconds": round(snapshot.busy_seconds, 6),
        },
        "runs": [{name: value for name, value in run.items()
                  if name not in ("v", "event", "ts")} for run in runs],
        "heartbeats": [dict(beat) for beat in snapshot.heartbeats],
        "metrics": _family_dict(metric_families(snapshot)),
    }


# The page follows the dataviz method: roles as CSS custom properties
# with selected light/dark values (validated default palette), text in
# ink tokens (never series color), one hue for the single-series
# sparklines, thin marks, recessive grid.  No external assets: the
# document is inlined as application/json and rendered by ~1 KB of
# vanilla JS, so the file works offline, in CI artifacts, forever.
_DASHBOARD_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>POM-TLB campaign dashboard</title>
<style>
  .viz-root {
    color-scheme: light;
    --surface-1: #fcfcfb; --surface-2: #f0efec;
    --text-primary: #0b0b0b; --text-secondary: #52514e;
    --grid: #e3e2de; --series-1: #2a78d6;
    --status-good: #008300; --status-bad: #e34948;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --surface-1: #1a1a19; --surface-2: #262625;
      --text-primary: #ffffff; --text-secondary: #c3c2b7;
      --grid: #383835; --series-1: #3987e5;
      --status-good: #31b057; --status-bad: #e66767;
    }
  }
  body { margin: 0; }
  .viz-root {
    background: var(--surface-1); color: var(--text-primary);
    font: 14px/1.45 system-ui, sans-serif;
    padding: 24px; max-width: 1080px; margin: 0 auto;
  }
  h1 { font-size: 20px; margin: 0 0 4px; }
  .sub { color: var(--text-secondary); margin-bottom: 20px; }
  .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
  .tile {
    background: var(--surface-2); border-radius: 8px;
    padding: 12px 16px; min-width: 108px;
  }
  .tile .v { font-size: 24px; font-weight: 600; }
  .tile .k { color: var(--text-secondary); font-size: 12px; }
  .cards { display: flex; flex-wrap: wrap; gap: 16px; margin: 8px 0 20px; }
  .card {
    background: var(--surface-2); border-radius: 8px;
    padding: 12px 16px; flex: 1 1 300px;
  }
  .card h2 { font-size: 13px; margin: 0 0 8px;
             color: var(--text-secondary); font-weight: 600; }
  svg .spark { fill: none; stroke: var(--series-1); stroke-width: 2; }
  svg .grid { stroke: var(--grid); stroke-width: 1; }
  table { border-collapse: collapse; width: 100%; margin: 8px 0 20px; }
  th { text-align: left; color: var(--text-secondary); font-weight: 600;
       font-size: 12px; }
  th, td { padding: 5px 10px 5px 0;
           border-bottom: 1px solid var(--grid); }
  td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
  .ok { color: var(--status-good); } .bad { color: var(--status-bad); }
  .state::before { content: "\\25CF\\00A0"; }
  details summary { cursor: pointer; color: var(--text-secondary); }
  pre { background: var(--surface-2); border-radius: 8px; padding: 12px;
        overflow-x: auto; font-size: 12px; }
</style>
</head>
<body>
<div class="viz-root">
  <h1>POM-TLB campaign dashboard</h1>
  <div class="sub" id="sub"></div>
  <div class="tiles" id="tiles"></div>
  <div class="cards" id="cards"></div>
  <h2 style="font-size:15px">Runs</h2>
  <table id="runs"><thead><tr>
    <th>benchmark</th><th>scheme</th><th>state</th>
    <th class="num">attempts</th><th class="num">wall s</th>
    <th class="num">cpu s</th><th>error</th>
  </tr></thead><tbody></tbody></table>
  <details><summary>Raw metric families</summary>
    <pre id="metrics"></pre></details>
  <script type="application/json" id="data">__DATA__</script>
  <script>
  "use strict";
  var doc = JSON.parse(document.getElementById("data").textContent);
  var s = doc.summary;
  function el(tag, cls, text) {
    var node = document.createElement(tag);
    if (cls) node.className = cls;
    if (text !== undefined) node.textContent = text;
    return node;
  }
  function fmt(value, digits) {
    return value === null || value === undefined
      ? "–" : Number(value).toFixed(digits === undefined ? 2 : digits);
  }
  document.getElementById("sub").textContent =
    s.total_runs + " runs planned · " + s.workers + " worker(s)";
  var tiles = document.getElementById("tiles");
  [["completed", s.completed], ["failed", s.failed],
   ["restored", s.restored], ["retries", s.retries]]
    .forEach(function (pair) {
      var tile = el("div", "tile");
      tile.appendChild(el("div", "v", String(pair[1])));
      tile.appendChild(el("div", "k", pair[0]));
      tiles.appendChild(tile);
    });
  function sparkline(title, points, digits) {
    var card = el("div", "card");
    card.appendChild(el("h2", null, title));
    var W = 300, H = 60, P = 4;
    var svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
    svg.setAttribute("viewBox", "0 0 " + W + " " + H);
    svg.setAttribute("width", "100%");
    var base = document.createElementNS(svg.namespaceURI, "line");
    base.setAttribute("class", "grid");
    base.setAttribute("x1", P); base.setAttribute("x2", W - P);
    base.setAttribute("y1", H - P); base.setAttribute("y2", H - P);
    svg.appendChild(base);
    if (points.length > 1) {
      var max = Math.max.apply(null, points.map(function (p) {
        return p[1]; })) || 1;
      var xs = points.map(function (p) { return p[0]; });
      var x0 = Math.min.apply(null, xs);
      var x1 = Math.max.apply(null, xs) - x0 || 1;
      var line = document.createElementNS(svg.namespaceURI, "polyline");
      line.setAttribute("class", "spark");
      line.setAttribute("points", points.map(function (p) {
        var x = P + (W - 2 * P) * (p[0] - x0) / x1;
        var y = H - P - (H - 2 * P) * (p[1] / max);
        return x.toFixed(1) + "," + y.toFixed(1);
      }).join(" "));
      svg.appendChild(line);
      card.appendChild(svg);
      var last = points[points.length - 1][1];
      card.appendChild(el("div", "k", "last " + fmt(last, digits) +
                          " · max " + fmt(max, digits)));
    } else {
      card.appendChild(el("div", "k",
        "needs ≥ 2 heartbeats (campaign too short)"));
    }
    return card;
  }
  var cards = document.getElementById("cards");
  var beats = doc.heartbeats;
  cards.appendChild(sparkline("worker busy fraction over time",
    beats.map(function (b) { return [b.elapsed_s, b.busy_frac]; }), 2));
  cards.appendChild(sparkline("runs completed over time",
    beats.map(function (b) {
      return [b.elapsed_s, b.completed + b.restored]; }), 0));
  var tbody = document.querySelector("#runs tbody");
  doc.runs.forEach(function (run) {
    var tr = el("tr");
    tr.appendChild(el("td", null, run.benchmark));
    tr.appendChild(el("td", null, run.scheme));
    tr.appendChild(el("td",
      "state " + (run.state === "failed" ? "bad" : "ok"), run.state));
    tr.appendChild(el("td", "num", String(run.attempts)));
    tr.appendChild(el("td", "num", fmt(run.wall_s)));
    tr.appendChild(el("td", "num", fmt(run.cpu_s)));
    tr.appendChild(el("td", null, run.error || "–"));
    tbody.appendChild(tr);
  });
  document.getElementById("metrics").textContent =
    JSON.stringify(doc.metrics, null, 2);
  </script>
</div>
</body>
</html>
"""


def dashboard_html(document: Dict[str, object]) -> str:
    """Render ``document`` into the self-contained dashboard page."""
    # "</" must not appear inside the inline <script> JSON block; the
    # escape is legal JSON and invisible to JSON.parse.
    payload = json.dumps(document, sort_keys=True).replace("</", "<\\/")
    return _DASHBOARD_TEMPLATE.replace("__DATA__", payload)


def write_dashboard(snapshot, directory: str) -> str:
    """Write ``campaign_dashboard.html`` into ``directory``; returns path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, DASHBOARD_FILENAME)
    atomic_write_text(path, dashboard_html(dashboard_document(snapshot)))
    return path


__all__ = [
    "DASHBOARD_FILENAME",
    "PROMETHEUS_FILENAME",
    "dashboard_document",
    "dashboard_html",
    "metric_families",
    "prometheus_text",
    "write_dashboard",
    "write_prometheus",
]
