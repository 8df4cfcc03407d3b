"""Campaign-wide telemetry: metrics registry, status stream, fleet view.

PR 1 gave a single simulation deep observability; this module gives the
*campaign* — many runs across many worker processes — the same
treatment, behind the same null-object discipline:

* :class:`MetricsRegistry` — counters / gauges / summaries with
  Prometheus-style labels.  It is **multiprocessing-safe by
  construction**: only the campaign parent ever mutates it.  Workers
  measure their own attempt (wall seconds, CPU seconds) and ship the
  measurement back over the existing result pipe; the parent
  aggregates.  No locks, no shared memory, no write races.
* :class:`CampaignTelemetry` — the hub the campaign and the resilient
  executor call into: run-lifecycle spans (queued → dispatched →
  running → retried / failed / completed), workload compilation,
  checkpoint skip/write counts, per-worker
  busy fraction, and the :class:`LptAccuracy` tracker comparing
  :mod:`repro.experiments.schedule` predicted cost against actual
  duration per run — the calibration signal adaptive sweeps need.
* a **live NDJSON status stream** (``--status-out``): one JSON object
  per line with a stable, versioned schema (:data:`STATUS_EVENT_FIELDS`,
  documented in EXPERIMENTS.md), flushed per event so ``pomtlb top`` and
  external tooling can tail it while the campaign runs.
* :class:`StatusSnapshot` / :func:`render_top` — the state machine and
  renderer behind ``pomtlb top``, the in-terminal fleet view.

:data:`NO_TELEMETRY` is the default everywhere.  Its hook methods are
no-ops and its ``enabled`` attribute is a ``False`` class attribute, so
a campaign that never asked for telemetry pays one attribute check per
*run* (not per translation) — far inside the < 5% overhead guard.

The exporters (Prometheus text exposition and the self-contained HTML
dashboard) live in :mod:`repro.obs.exporters` and read the structures
collected here.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Tuple

# -- status-stream schema ------------------------------------------------------

#: Bumped when the NDJSON status-stream schema changes; every event
#: carries it as ``v`` so consumers can reject streams they don't speak.
STATUS_VERSION = 2

#: Campaign accepted: totals and pool shape.
CAMPAIGN_START = "campaign_start"
#: Workload compilation finished.
WORKLOADS = "workloads"
#: One attempt of one run was dispatched (serial or into a pool worker).
RUN_START = "run_start"
#: A transient failure was scheduled for another attempt.
RUN_RETRY = "run_retry"
#: A run reached a terminal state: ``ok`` / ``failed`` / ``restored``.
RUN_END = "run_end"
#: Periodic fleet sample (cadence: ``heartbeat_s``, default 1 s).
HEARTBEAT = "heartbeat"
#: Campaign finished; final tallies (mirrors the exporters).
CAMPAIGN_END = "campaign_end"

#: Required type-specific fields per status event (every event also
#: carries ``v``, ``event``, ``t`` — seconds since campaign start from a
#: monotonic clock — and ``ts`` — wall-clock epoch seconds).
STATUS_EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    CAMPAIGN_START: ("total_runs", "workers"),
    WORKLOADS: ("compiled",),
    RUN_START: ("key", "benchmark", "scheme", "attempt", "mode",
                "predicted_s"),
    RUN_RETRY: ("key", "benchmark", "scheme", "attempt", "error",
                "delay_s"),
    RUN_END: ("key", "benchmark", "scheme", "state", "attempts", "wall_s",
              "cpu_s", "predicted_s", "error"),
    HEARTBEAT: ("elapsed_s", "queued", "running", "completed", "failed",
                "restored", "retries", "busy_frac"),
    CAMPAIGN_END: ("elapsed_s", "completed", "failed", "restored",
                   "retries", "simulated"),
}

#: Terminal states a ``run_end`` event may carry.
RUN_END_STATES = ("ok", "failed", "restored")


def validate_status_event(event: Mapping) -> None:
    """Raise ``ValueError`` unless ``event`` matches the documented schema."""
    if not isinstance(event, Mapping):
        raise ValueError(f"status event must be a JSON object, "
                         f"got {type(event).__name__}")
    if event.get("v") != STATUS_VERSION:
        raise ValueError(f"unsupported status-stream version "
                         f"{event.get('v')!r} (expected {STATUS_VERSION})")
    etype = event.get("event")
    if etype not in STATUS_EVENT_FIELDS:
        raise ValueError(f"unknown status event type {etype!r}")
    for name in ("t", "ts"):
        if name not in event:
            raise ValueError(f"{etype} event missing timestamp {name!r}")
    missing = [f for f in STATUS_EVENT_FIELDS[etype] if f not in event]
    if missing:
        raise ValueError(f"{etype} event missing fields {missing}: {event}")
    if etype == RUN_END and event["state"] not in RUN_END_STATES:
        raise ValueError(f"run_end state {event['state']!r} not in "
                         f"{RUN_END_STATES}")


# -- metrics registry ----------------------------------------------------------

class Counter:
    """Monotonically increasing count (Prometheus ``counter``)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that goes up and down (Prometheus ``gauge``)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Summary:
    """Streaming count/sum/min/max of observations (durations, sizes)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _Family:
    """All label-variants of one named metric, plus its metadata."""

    __slots__ = ("kind", "help", "series")

    def __init__(self, kind: str, help_text: str) -> None:
        self.kind = kind
        self.help = help_text
        self.series: Dict[Tuple[Tuple[str, str], ...], object] = {}


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "summary": Summary}


class MetricsRegistry:
    """Named counters / gauges / summaries with optional labels.

    Single-writer by contract: the campaign parent owns the registry and
    is the only mutator (worker measurements arrive over the result
    pipe), which is what makes it multiprocessing-safe without locks.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _metric(self, kind: str, name: str, help_text: str,
                labels: Dict[str, str]):
        family = self._families.get(name)
        if family is None:
            family = _Family(kind, help_text)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(f"metric {name!r} already registered as "
                             f"{family.kind}, not {kind}")
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        metric = family.series.get(key)
        if metric is None:
            metric = _METRIC_TYPES[kind]()
            family.series[key] = metric
        return metric

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        return self._metric("counter", name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        return self._metric("gauge", name, help_text, labels)

    def summary(self, name: str, help_text: str = "", **labels) -> Summary:
        return self._metric("summary", name, help_text, labels)

    def collect(self):
        """Yield ``(name, kind, help, [(labels, metric), ...])`` sorted."""
        for name in sorted(self._families):
            family = self._families[name]
            yield (name, family.kind, family.help,
                   sorted(family.series.items()))

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (what the dashboard inlines)."""
        snapshot: Dict[str, object] = {}
        for name, kind, help_text, series in self.collect():
            entries = []
            for labels, metric in series:
                entry: Dict[str, object] = {"labels": dict(labels)}
                if kind == "summary":
                    entry.update(count=metric.count, sum=metric.total,
                                 min=(metric.minimum if metric.count
                                      else None),
                                 max=(metric.maximum if metric.count
                                      else None))
                else:
                    entry["value"] = metric.value
                entries.append(entry)
            snapshot[name] = {"type": kind, "help": help_text,
                              "series": entries}
        return snapshot


# -- LPT calibration -----------------------------------------------------------

class LptAccuracy:
    """Predicted-vs-actual run duration, per run and aggregated.

    The LPT scheduler (:mod:`repro.experiments.schedule`) dispatches
    longest-expected-first from ``BENCH_engine.json`` rates; this
    tracker records how good those predictions were.  ``error`` is the
    signed relative error ``(actual - predicted) / predicted``; the
    summary reports MAPE (mean absolute percentage error) and bias
    (mean signed error) — the feedback adaptive sweeps will calibrate
    against.
    """

    def __init__(self) -> None:
        self._predicted: Dict[str, float] = {}
        self.records: List[Dict[str, object]] = []

    def predict(self, key: str, seconds: float) -> None:
        self._predicted[key] = seconds

    def predicted(self, key: str) -> Optional[float]:
        return self._predicted.get(key)

    def observe(self, key: str, benchmark: str, scheme: str,
                actual_s: float) -> None:
        predicted = self._predicted.get(key)
        if predicted is None or predicted <= 0 or actual_s < 0:
            return
        self.records.append({
            "key": key, "benchmark": benchmark, "scheme": scheme,
            "predicted_s": predicted, "actual_s": actual_s,
            "error": (actual_s - predicted) / predicted,
        })

    def summary(self) -> Dict[str, object]:
        if not self.records:
            return {"runs": 0, "mape": None, "bias": None}
        errors = [record["error"] for record in self.records]
        return {
            "runs": len(errors),
            "mape": sum(abs(e) for e in errors) / len(errors),
            "bias": sum(errors) / len(errors),
        }


# -- the telemetry hub ---------------------------------------------------------

class NullTelemetry:
    """Do-nothing telemetry; ``enabled`` is always False.

    The hooks exist so call sites that did not gate still work; gated
    sites (``if telemetry.enabled``) skip even the argument packing.
    """

    enabled = False

    def campaign_start(self, total_runs: int, workers: int) -> None:
        pass

    def workloads_compiled(self, compiled: int) -> None:
        pass

    def predict(self, key: str, seconds: float) -> None:
        pass

    def run_queued(self, key: str, request) -> None:
        pass

    def run_restored(self, key: str, request) -> None:
        pass

    def run_dispatched(self, key: str, request, attempt: int,
                       mode: str) -> None:
        pass

    def run_retry(self, key: str, request, attempt: int, error: str,
                  delay_s: float) -> None:
        pass

    def run_finished(self, key: str, request, ok: bool, attempts: int,
                     wall_s: float, cpu_s: Optional[float] = None,
                     error: Optional[str] = None) -> None:
        pass

    def checkpoint_write(self, ok: bool) -> None:
        pass

    def sample(self, queued: int, running: int) -> None:
        pass

    def campaign_end(self, simulated: int = 0) -> None:
        pass

    def export(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


#: The shared null object; every telemetry parameter defaults to it.
NO_TELEMETRY = NullTelemetry()


class CampaignTelemetry(NullTelemetry):
    """Aggregates campaign telemetry in the parent and streams status.

    ``status_path`` — NDJSON status stream, one flushed line per event
    (empty = no stream).  ``export_dir`` — where :meth:`export` writes
    ``campaign_metrics.prom`` and ``campaign_dashboard.html`` (empty =
    no exporters).  ``heartbeat_s`` — minimum seconds between heartbeat
    events; the executor calls :meth:`sample` from its poll loop and the
    hub rate-limits internally.  ``clock`` / ``wall`` are injectable for
    tests (monotonic and epoch clocks).
    """

    enabled = True

    def __init__(self, status_path: str = "", export_dir: str = "",
                 heartbeat_s: float = 1.0,
                 clock: Callable[[], float] = time.monotonic,
                 wall: Callable[[], float] = time.time) -> None:
        self.status_path = status_path
        self.export_dir = export_dir
        self.heartbeat_s = heartbeat_s
        self.clock = clock
        self.wall = wall
        self.registry = MetricsRegistry()
        self.lpt = LptAccuracy()
        #: key -> per-run record (state machine + dashboard rows)
        self.runs: Dict[str, Dict[str, object]] = {}
        self.heartbeats: List[Dict[str, float]] = []
        self.workers = 1
        self.total_runs = 0
        self.started = self.clock()
        self.busy_seconds = 0.0
        self.retries = 0
        self._counts = {"ok": 0, "failed": 0, "restored": 0}
        self._last_heartbeat = None  # None until campaign_start
        self._stream = open(status_path, "w") if status_path else None

    # -- status stream -------------------------------------------------------

    def _emit(self, etype: str, **fields) -> None:
        if self._stream is None:
            return
        event = {"v": STATUS_VERSION, "event": etype,
                 "t": round(self.clock() - self.started, 6),
                 "ts": round(self.wall(), 3), **fields}
        # One write() per line, flushed: tailers never see a sheared
        # line, and `pomtlb top` sees events as they happen.
        self._stream.write(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")
        self._stream.flush()

    # -- campaign lifecycle --------------------------------------------------

    def campaign_start(self, total_runs: int, workers: int) -> None:
        self.total_runs = total_runs
        self.workers = max(1, workers)
        self.started = self.clock()
        self._last_heartbeat = self.started
        self.registry.gauge(
            "pomtlb_campaign_workers",
            "Process-pool width of this campaign.").set(self.workers)
        self.registry.gauge(
            "pomtlb_campaign_runs_planned",
            "Runs the campaign enumerated up front.").set(total_runs)
        self._emit(CAMPAIGN_START, total_runs=total_runs,
                   workers=self.workers)

    def workloads_compiled(self, compiled: int) -> None:
        self.registry.counter(
            "pomtlb_campaign_workloads_compiled_total",
            "Distinct workloads compiled this campaign.").inc(compiled)
        self._emit(WORKLOADS, compiled=compiled)

    def predict(self, key: str, seconds: float) -> None:
        self.lpt.predict(key, seconds)

    # -- run lifecycle (executor hooks) --------------------------------------

    def _run(self, key: str, request) -> Dict[str, object]:
        record = self.runs.get(key)
        if record is None:
            record = {"key": key, "benchmark": request.benchmark,
                      "scheme": request.scheme, "state": "queued",
                      "attempts": 0, "queued_t": self.clock() - self.started,
                      "wall_s": None, "cpu_s": None,
                      "predicted_s": self.lpt.predicted(key),
                      "error": None}
            self.runs[key] = record
        return record

    def run_queued(self, key: str, request) -> None:
        self._run(key, request)
        self.registry.counter(
            "pomtlb_campaign_runs_queued_total",
            "Distinct runs accepted by the executor.").inc()

    def run_restored(self, key: str, request) -> None:
        record = self._run(key, request)
        record["state"] = "restored"
        record["wall_s"] = 0.0
        self._counts["restored"] += 1
        self.registry.counter(
            "pomtlb_campaign_runs_total",
            "Terminal run states.", state="restored").inc()
        self.registry.counter(
            "pomtlb_campaign_checkpoint_skips_total",
            "Runs satisfied from the checkpoint store "
            "(no simulation).").inc()
        self._emit(RUN_END, key=key, benchmark=request.benchmark,
                   scheme=request.scheme, state="restored", attempts=0,
                   wall_s=0.0, cpu_s=None,
                   predicted_s=self.lpt.predicted(key), error=None)

    def run_dispatched(self, key: str, request, attempt: int,
                       mode: str) -> None:
        record = self._run(key, request)
        record["state"] = "running"
        record["attempts"] = attempt
        record["dispatched_t"] = self.clock() - self.started
        self.registry.counter(
            "pomtlb_campaign_attempts_total",
            "Run attempts dispatched (retries included).",
            mode=mode).inc()
        self._emit(RUN_START, key=key, benchmark=request.benchmark,
                   scheme=request.scheme, attempt=attempt, mode=mode,
                   predicted_s=self.lpt.predicted(key))

    def run_retry(self, key: str, request, attempt: int, error: str,
                  delay_s: float) -> None:
        record = self._run(key, request)
        record["state"] = "retrying"
        self.retries += 1
        self.registry.counter(
            "pomtlb_campaign_retries_total",
            "Transient failures scheduled for another attempt.").inc()
        self._emit(RUN_RETRY, key=key, benchmark=request.benchmark,
                   scheme=request.scheme, attempt=attempt, error=error,
                   delay_s=round(delay_s, 6))

    def run_finished(self, key: str, request, ok: bool, attempts: int,
                     wall_s: float, cpu_s: Optional[float] = None,
                     error: Optional[str] = None) -> None:
        record = self._run(key, request)
        state = "ok" if ok else "failed"
        record.update(state=state, attempts=attempts, wall_s=wall_s,
                      cpu_s=cpu_s, error=error)
        self._counts[state] += 1
        self.busy_seconds += max(0.0, wall_s)
        self.registry.counter("pomtlb_campaign_runs_total",
                              "Terminal run states.", state=state).inc()
        self.registry.summary(
            "pomtlb_campaign_run_wall_seconds",
            "Per-run wall-clock duration.",
            scheme=request.scheme).observe(wall_s)
        if cpu_s is not None:
            self.registry.summary(
                "pomtlb_campaign_run_cpu_seconds",
                "Per-run worker CPU time.",
                scheme=request.scheme).observe(cpu_s)
        self.registry.summary(
            "pomtlb_campaign_worker_busy_seconds",
            "Attempt durations summed across the pool.").observe(
                max(0.0, wall_s))
        if ok:
            self.lpt.observe(key, request.benchmark, request.scheme, wall_s)
        self._emit(RUN_END, key=key, benchmark=request.benchmark,
                   scheme=request.scheme, state=state, attempts=attempts,
                   wall_s=round(wall_s, 6),
                   cpu_s=None if cpu_s is None else round(cpu_s, 6),
                   predicted_s=self.lpt.predicted(key), error=error)

    def checkpoint_write(self, ok: bool) -> None:
        if ok:
            self.registry.counter(
                "pomtlb_campaign_checkpoint_writes_total",
                "Finished runs persisted to the checkpoint store.").inc()
        else:
            self.registry.counter(
                "pomtlb_campaign_checkpoint_write_failures_total",
                "Checkpoint writes that failed (campaign continued "
                "without durability for that run).").inc()

    # -- heartbeats ----------------------------------------------------------

    def sample(self, queued: int, running: int) -> None:
        """Rate-limited fleet sample; the executor calls this freely."""
        now = self.clock()
        last = self._last_heartbeat
        if last is None:
            self._last_heartbeat = now
            return
        if now - last < self.heartbeat_s:
            return
        self._last_heartbeat = now
        self.heartbeat(queued, running)

    def heartbeat(self, queued: int, running: int) -> None:
        """Emit one heartbeat unconditionally (``sample`` rate-limits)."""
        elapsed = max(self.clock() - self.started, 1e-9)
        busy = min(1.0, self.busy_seconds / (self.workers * elapsed))
        beat = {"elapsed_s": round(elapsed, 6), "queued": queued,
                "running": running, "completed": self._counts["ok"],
                "failed": self._counts["failed"],
                "restored": self._counts["restored"],
                "retries": self.retries, "busy_frac": round(busy, 4)}
        self.heartbeats.append(beat)
        self._emit(HEARTBEAT, **beat)

    # -- wrap-up -------------------------------------------------------------

    def campaign_end(self, simulated: int = 0) -> None:
        elapsed = self.clock() - self.started
        self.registry.gauge(
            "pomtlb_campaign_elapsed_seconds",
            "Campaign wall-clock (monotonic).").set(round(elapsed, 6))
        summary = self.lpt.summary()
        self.registry.gauge(
            "pomtlb_campaign_lpt_runs",
            "Runs with a predicted-vs-actual calibration record.").set(
                summary["runs"])
        if summary["mape"] is not None:
            self.registry.gauge(
                "pomtlb_campaign_lpt_mape",
                "LPT scheduler mean absolute percentage error.").set(
                    round(summary["mape"], 6))
            self.registry.gauge(
                "pomtlb_campaign_lpt_bias",
                "LPT scheduler mean signed relative error.").set(
                    round(summary["bias"], 6))
        self._emit(CAMPAIGN_END, elapsed_s=round(elapsed, 6),
                   completed=self._counts["ok"],
                   failed=self._counts["failed"],
                   restored=self._counts["restored"],
                   retries=self.retries, simulated=simulated)

    def export(self) -> List[str]:
        """Write the Prometheus and dashboard artifacts; returns paths."""
        if not self.export_dir:
            return []
        from .exporters import write_dashboard, write_prometheus
        paths = [write_prometheus(self.registry, self.export_dir),
                 write_dashboard(self, self.export_dir)]
        return paths

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None


# -- `pomtlb top`: snapshot + renderer -----------------------------------------

class StatusSnapshot:
    """Replays a status stream into the current fleet state.

    Tolerant by design: unknown events and damaged lines are skipped —
    a live tail must survive a half-written final line or a newer
    stream version's extra events.
    """

    def __init__(self, recent: int = 8) -> None:
        self.total_runs = 0
        self.workers = 1
        self.completed = 0
        self.failed = 0
        self.restored = 0
        self.retries = 0
        self.compiled = 0
        self.elapsed_s = 0.0
        self.busy_frac = 0.0
        self.queued = 0
        self.running: Dict[str, Dict[str, object]] = {}
        self.recent = deque(maxlen=recent)
        self.errors: List[str] = []
        self.finished = False
        self.lpt = LptAccuracy()
        self.heartbeats: List[Dict[str, float]] = []

    def apply_line(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            event = json.loads(line)
            validate_status_event(event)
        except (ValueError, TypeError):
            return
        self.apply(event)

    def apply(self, event: Mapping) -> None:
        etype = event["event"]
        self.elapsed_s = max(self.elapsed_s, float(event.get("t", 0.0)))
        if etype == CAMPAIGN_START:
            self.total_runs = event["total_runs"]
            self.workers = event["workers"]
        elif etype == WORKLOADS:
            self.compiled = event["compiled"]
        elif etype == RUN_START:
            self.running[event["key"]] = dict(event)
            if event["predicted_s"] is not None:
                self.lpt.predict(event["key"], event["predicted_s"])
        elif etype == RUN_RETRY:
            self.retries += 1
            self.running.pop(event["key"], None)
            self.recent.appendleft(("retry", event))
        elif etype == RUN_END:
            self.running.pop(event["key"], None)
            state = event["state"]
            if state == "ok":
                self.completed += 1
                if (event["predicted_s"] is not None
                        and event["wall_s"] is not None):
                    self.lpt.predict(event["key"], event["predicted_s"])
                    self.lpt.observe(event["key"], event["benchmark"],
                                     event["scheme"], event["wall_s"])
            elif state == "failed":
                self.failed += 1
                if event.get("error"):
                    self.errors.append(
                        f"({event['benchmark']}, {event['scheme']}): "
                        f"{event['error']}")
            else:
                self.restored += 1
            self.recent.appendleft((state, event))
        elif etype == HEARTBEAT:
            self.queued = event["queued"]
            self.busy_frac = event["busy_frac"]
            self.heartbeats.append(dict(event))
        elif etype == CAMPAIGN_END:
            self.finished = True
            self.completed = event["completed"]
            self.failed = event["failed"]
            self.restored = event["restored"]
            self.retries = event["retries"]

    @property
    def done(self) -> int:
        return self.completed + self.failed + self.restored


def _bar(fraction: float, width: int = 28) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render_top(snapshot: StatusSnapshot) -> str:
    """One full-screen text rendering of the fleet state."""
    done, total = snapshot.done, max(snapshot.total_runs, 1)
    fraction = done / total
    state = "finished" if snapshot.finished else "running"
    lines = [
        f"POM-TLB campaign [{state}] — {done}/{snapshot.total_runs} runs "
        f"({snapshot.completed} ok, {snapshot.failed} failed, "
        f"{snapshot.restored} restored) · elapsed {snapshot.elapsed_s:.0f}s",
        f"workers {snapshot.workers} · busy {100 * snapshot.busy_frac:.0f}% "
        f"· queued {snapshot.queued} · running {len(snapshot.running)} "
        f"· retries {snapshot.retries}",
        f"workloads: {snapshot.compiled} compiled",
    ]
    lpt = snapshot.lpt.summary()
    if lpt["runs"]:
        lines.append(f"LPT calibration: {lpt['runs']} runs · MAPE "
                     f"{100 * lpt['mape']:.1f}% · bias "
                     f"{100 * lpt['bias']:+.1f}%")
    lines.append(f"{_bar(fraction)} {100 * fraction:3.0f}%")
    if snapshot.running:
        lines.append("running:")
        for record in list(snapshot.running.values())[:8]:
            lines.append(f"  ({record['benchmark']}, {record['scheme']}) "
                         f"attempt {record['attempt']} [{record['mode']}]")
    if snapshot.recent:
        lines.append("recent:")
        for state, event in snapshot.recent:
            wall = event.get("wall_s")
            suffix = "" if wall is None else f"  {wall:.2f}s"
            lines.append(f"  {state:<8} ({event['benchmark']}, "
                         f"{event['scheme']}){suffix}")
    if snapshot.errors:
        lines.append("failures:")
        for error in snapshot.errors[-4:]:
            lines.append(f"  {error}")
    return "\n".join(lines) + "\n"
