"""Campaign-wide telemetry: status stream, snapshot, fleet view.

PR 1 gave a single simulation deep observability; this module gives the
*campaign* — many runs across many worker processes — the same
treatment, behind the same null-object discipline.  The status-stream
events are the only record of a campaign:

* :class:`CampaignTelemetry` — the hub the campaign and the resilient
  executor call into.  Each hook builds one event (run-lifecycle:
  dispatched → retried / failed / completed / restored, workload
  compilation, heartbeats), writes it to the **live NDJSON status
  stream** (``--status-out``; one JSON object per line with a stable,
  versioned schema, :data:`STATUS_EVENT_FIELDS`, documented in
  EXPERIMENTS.md, flushed per event so ``pomtlb top`` and external
  tooling can tail it) and applies it to its in-memory snapshot.  It is
  **multiprocessing-safe by construction**: only the campaign parent
  emits; workers measure their own attempt (wall seconds, CPU seconds)
  and ship the measurement back over the existing result pipe.
* :class:`StatusSnapshot` — the only fold of events into state.  The
  hub keeps one; ``pomtlb top`` replays a stream file into another, and
  :func:`render_top`, the Prometheus text and the HTML dashboard
  (:mod:`repro.obs.exporters`) are functions of a snapshot, so a replayed
  stream reproduces every artifact exactly.

:data:`NO_TELEMETRY` is the default everywhere.  Its hook methods are
no-ops and its ``enabled`` attribute is a ``False`` class attribute, so
a campaign that never asked for telemetry pays one attribute check per
*run* (not per translation).
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

# -- status-stream schema ------------------------------------------------------

#: Bumped when the NDJSON status-stream schema changes; every event
#: carries it as ``v`` so consumers can reject streams they don't speak.
STATUS_VERSION = 3

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
    RUN_START: ("key", "benchmark", "scheme", "attempt", "mode"),
    RUN_RETRY: ("key", "benchmark", "scheme", "attempt", "error",
                "delay_s"),
    RUN_END: ("key", "benchmark", "scheme", "state", "attempts", "wall_s",
              "cpu_s", "error"),
    HEARTBEAT: ("elapsed_s", "queued", "running", "completed", "failed",
                "restored", "retries", "busy_frac"),
    CAMPAIGN_END: ("elapsed_s", "completed", "failed", "restored",
                   "retries", "simulated"),
}

#: Terminal states a ``run_end`` event may carry.
RUN_END_STATES = ("ok", "failed", "restored")

# Writers also put ``checkpoint`` on every ``run_end``: ``true`` (the
# run was written to the checkpoint store), ``false`` (the write failed)
# or ``null`` (no store, a failed run, or a restored one).  Readers
# treat a missing field as ``null``, so older streams still validate.


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
    if etype == RUN_END and event.get("checkpoint") not in (True, False,
                                                             None):
        raise ValueError(f"run_end checkpoint {event['checkpoint']!r} "
                         f"is not true, false or null")


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
                     error: Optional[str] = None,
                     checkpoint: Optional[bool] = None) -> None:
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
    """Emits the campaign's status events and folds them into a snapshot.

    ``status_path`` — NDJSON status stream, one flushed line per event
    (empty = no stream).  ``export_dir`` — where :meth:`export` writes
    ``campaign_metrics.prom`` and ``campaign_dashboard.html`` (empty =
    no exporters).  ``heartbeat_s`` — minimum seconds between heartbeat
    events; the executor calls :meth:`sample` from its poll loop and the
    hub rate-limits internally.  ``clock`` / ``wall`` are injectable for
    tests (monotonic and epoch clocks).

    Every fact the hub reports lives in :attr:`snapshot`, which applies
    exactly the events the stream carries.
    """

    enabled = True

    def __init__(self, status_path: str = "", export_dir: str = "",
                 heartbeat_s: float = 1.0,
                 clock: Callable[[], float] = time.monotonic,
                 wall: Callable[[], float] = time.time) -> None:
        self.export_dir = export_dir
        self.heartbeat_s = heartbeat_s
        self.clock = clock
        self.wall = wall
        self.snapshot = StatusSnapshot()
        self.started = self.clock()
        self._last_heartbeat = None  # None until campaign_start
        self._stream = open(status_path, "w") if status_path else None

    def _emit(self, etype: str, **fields) -> None:
        event = {"v": STATUS_VERSION, "event": etype,
                 "t": round(self.clock() - self.started, 6),
                 "ts": round(self.wall(), 3), **fields}
        if self._stream is not None:
            # One write() per line, flushed: tailers never see a sheared
            # line, and `pomtlb top` sees events as they happen.
            self._stream.write(json.dumps(event, sort_keys=True,
                                          separators=(",", ":")) + "\n")
            self._stream.flush()
        self.snapshot.apply(event)

    # -- campaign lifecycle --------------------------------------------------

    def campaign_start(self, total_runs: int, workers: int) -> None:
        self.started = self.clock()
        self._last_heartbeat = self.started
        self._emit(CAMPAIGN_START, total_runs=total_runs,
                   workers=max(1, workers))

    def workloads_compiled(self, compiled: int) -> None:
        self._emit(WORKLOADS, compiled=compiled)

    # -- run lifecycle (executor hooks) --------------------------------------

    def run_restored(self, key: str, request) -> None:
        self._emit(RUN_END, key=key, benchmark=request.benchmark,
                   scheme=request.scheme, state="restored", attempts=0,
                   wall_s=0.0, cpu_s=None, error=None, checkpoint=None)

    def run_dispatched(self, key: str, request, attempt: int,
                       mode: str) -> None:
        self._emit(RUN_START, key=key, benchmark=request.benchmark,
                   scheme=request.scheme, attempt=attempt, mode=mode)

    def run_retry(self, key: str, request, attempt: int, error: str,
                  delay_s: float) -> None:
        self._emit(RUN_RETRY, key=key, benchmark=request.benchmark,
                   scheme=request.scheme, attempt=attempt, error=error,
                   delay_s=round(delay_s, 6))

    def run_finished(self, key: str, request, ok: bool, attempts: int,
                     wall_s: float, cpu_s: Optional[float] = None,
                     error: Optional[str] = None,
                     checkpoint: Optional[bool] = None) -> None:
        self._emit(RUN_END, key=key, benchmark=request.benchmark,
                   scheme=request.scheme, state="ok" if ok else "failed",
                   attempts=attempts, wall_s=round(wall_s, 6),
                   cpu_s=None if cpu_s is None else round(cpu_s, 6),
                   error=error, checkpoint=checkpoint)

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
        snap = self.snapshot
        elapsed = max(self.clock() - self.started, 1e-9)
        busy = min(1.0, snap.busy_seconds / (snap.workers * elapsed))
        self._emit(HEARTBEAT, elapsed_s=round(elapsed, 6), queued=queued,
                   running=running, completed=snap.completed,
                   failed=snap.failed, restored=snap.restored,
                   retries=snap.retries, busy_frac=round(busy, 4))

    # -- wrap-up -------------------------------------------------------------

    def campaign_end(self, simulated: int = 0) -> None:
        snap = self.snapshot
        self._emit(CAMPAIGN_END,
                   elapsed_s=round(self.clock() - self.started, 6),
                   completed=snap.completed, failed=snap.failed,
                   restored=snap.restored, retries=snap.retries,
                   simulated=simulated)

    def export(self) -> List[str]:
        """Write the Prometheus and dashboard artifacts; returns paths."""
        if not self.export_dir:
            return []
        from .exporters import write_dashboard, write_prometheus
        return [write_prometheus(self.snapshot, self.export_dir),
                write_dashboard(self.snapshot, self.export_dir)]

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None


# -- the snapshot: every artifact's one input ----------------------------------

class StatusSnapshot:
    """Folds status events into the campaign's current state.

    The campaign's own hub applies each event as it emits it; ``pomtlb
    top`` applies each line it tails.  Terminal rows are the ``run_end``
    events themselves, so counts, busy seconds and failures are read off
    them rather than kept twice.  Tolerant by design: unknown events and
    damaged lines are skipped — a live tail must survive a half-written
    final line.  An event of another stream version is skipped too, and
    its ``v`` kept in :attr:`unsupported_version` for the reader to
    refuse the stream.
    """

    def __init__(self, recent: int = 8) -> None:
        #: the campaign_start / workloads / campaign_end events, once seen
        self.start: Optional[Mapping] = None
        self.workloads: Optional[Mapping] = None
        self.end: Optional[Mapping] = None
        self.elapsed_s = 0.0
        #: dispatched attempts per mode, and the distinct runs dispatched
        self.attempts: Dict[str, int] = {}
        self.dispatched: Set[str] = set()
        self.retries = 0
        #: key -> run_start event of each attempt in flight
        self.running: Dict[str, Mapping] = {}
        #: key -> run_end event, in arrival order
        self.ends: Dict[str, Mapping] = {}
        self.heartbeats: List[Mapping] = []
        self.recent = deque(maxlen=recent)
        #: ``v`` of the first whole event written in a stream version
        #: this reader cannot fold, None while there was none
        self.unsupported_version = None

    def apply_line(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            event = json.loads(line)
            if (isinstance(event, dict) and "v" in event
                    and event["v"] != STATUS_VERSION):
                if self.unsupported_version is None:
                    self.unsupported_version = event["v"]
                return
            validate_status_event(event)
        except (ValueError, TypeError):
            return
        self.apply(event)

    def apply(self, event: Mapping) -> None:
        etype = event["event"]
        self.elapsed_s = max(self.elapsed_s, float(event.get("t", 0.0)))
        if etype == CAMPAIGN_START:
            self.start = event
        elif etype == WORKLOADS:
            self.workloads = event
        elif etype == RUN_START:
            key = event["key"]
            self.running[key] = event
            self.dispatched.add(key)
            self.attempts[event["mode"]] = \
                self.attempts.get(event["mode"], 0) + 1
        elif etype == RUN_RETRY:
            self.retries += 1
            self.running.pop(event["key"], None)
            self.recent.appendleft(("retry", event))
        elif etype == RUN_END:
            self.running.pop(event["key"], None)
            self.ends[event["key"]] = event
            self.recent.appendleft((event["state"], event))
        elif etype == HEARTBEAT:
            self.heartbeats.append(event)
        elif etype == CAMPAIGN_END:
            self.end = event

    # -- derived views -------------------------------------------------------

    @property
    def total_runs(self) -> int:
        return self.start["total_runs"] if self.start else 0

    @property
    def workers(self) -> int:
        return self.start["workers"] if self.start else 1

    @property
    def compiled(self) -> int:
        return self.workloads["compiled"] if self.workloads else 0

    @property
    def finished(self) -> bool:
        return self.end is not None

    def rows(self, *states: str) -> List[Mapping]:
        """The ``run_end`` events in ``states`` (all when none given)."""
        return [event for event in self.ends.values()
                if not states or event["state"] in states]

    @property
    def completed(self) -> int:
        return len(self.rows("ok"))

    @property
    def failed(self) -> int:
        return len(self.rows("failed"))

    @property
    def restored(self) -> int:
        return len(self.rows("restored"))

    @property
    def done(self) -> int:
        return len(self.ends)

    @property
    def busy_seconds(self) -> float:
        """Attempt seconds summed over the runs this campaign simulated."""
        return sum(max(0.0, event["wall_s"])
                   for event in self.rows("ok", "failed"))

    @property
    def errors(self) -> List[str]:
        return [f"({event['benchmark']}, {event['scheme']}): "
                f"{event['error']}"
                for event in self.rows("failed") if event.get("error")]


def _bar(fraction: float, width: int = 28) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render_top(snapshot: StatusSnapshot) -> str:
    """One full-screen text rendering of the fleet state."""
    done, total = snapshot.done, max(snapshot.total_runs, 1)
    fraction = done / total
    state = "finished" if snapshot.finished else "running"
    beat = snapshot.heartbeats[-1] if snapshot.heartbeats else {}
    lines = [
        f"POM-TLB campaign [{state}] — {done}/{snapshot.total_runs} runs "
        f"({snapshot.completed} ok, {snapshot.failed} failed, "
        f"{snapshot.restored} restored) · elapsed {snapshot.elapsed_s:.0f}s",
        f"workers {snapshot.workers} · busy "
        f"{100 * beat.get('busy_frac', 0.0):.0f}% "
        f"· queued {beat.get('queued', 0)} · running {len(snapshot.running)} "
        f"· retries {snapshot.retries}",
        f"workloads: {snapshot.compiled} compiled",
        f"{_bar(fraction)} {100 * fraction:3.0f}%",
    ]
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
