"""Campaign telemetry: status-stream schema, snapshot, heartbeats."""

import json

import pytest

from repro.obs import (
    NO_TELEMETRY,
    CampaignTelemetry,
    NullTelemetry,
    StatusSnapshot,
)
from repro.obs.telemetry import (
    RUN_END_STATES,
    STATUS_EVENT_FIELDS,
    STATUS_VERSION,
    render_top,
    validate_status_event,
)


class _Request:
    """Duck-typed stand-in for a RunRequest."""

    def __init__(self, benchmark="gups", scheme="pom"):
        self.benchmark = benchmark
        self.scheme = scheme


class _FakeClock:
    """Deterministic monotonic clock the tests advance by hand."""

    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def telemetry(tmp_path, heartbeat_s=1.0, export_dir=""):
    clock = _FakeClock()
    hub = CampaignTelemetry(status_path=str(tmp_path / "status.ndjson"),
                            export_dir=export_dir,
                            heartbeat_s=heartbeat_s,
                            clock=clock, wall=lambda: 1700000000.0)
    return hub, clock


def stream_events(tmp_path):
    path = tmp_path / "status.ndjson"
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestNullTelemetry:
    def test_disabled_and_inert(self, tmp_path):
        assert NO_TELEMETRY.enabled is False
        assert isinstance(NO_TELEMETRY, NullTelemetry)
        # Every hook is callable and returns None; nothing is written.
        NO_TELEMETRY.campaign_start(5, 2)
        NO_TELEMETRY.run_dispatched("k", _Request(), 1, mode="serial")
        NO_TELEMETRY.run_finished("k", _Request(), ok=True, attempts=1,
                                  wall_s=0.1, checkpoint=True)
        NO_TELEMETRY.sample(queued=1, running=1)
        NO_TELEMETRY.campaign_end()
        assert NO_TELEMETRY.export() == []
        NO_TELEMETRY.close()
        assert list(tmp_path.iterdir()) == []

    def test_campaign_telemetry_is_a_null_telemetry(self, tmp_path):
        hub, _ = telemetry(tmp_path)
        assert isinstance(hub, NullTelemetry)
        assert hub.enabled is True
        hub.close()


class TestStatusSchema:
    """Golden-schema check: every line the hub emits validates."""

    def test_full_lifecycle_stream_validates(self, tmp_path):
        hub, clock = telemetry(tmp_path)
        request = _Request()
        hub.campaign_start(2, 2)
        hub.workloads_compiled(2)
        hub.run_dispatched("k1", request, attempt=1, mode="pool")
        clock.advance(0.4)
        hub.run_retry("k1", request, attempt=1, error="RunTimeout: slow",
                      delay_s=0.25)
        hub.run_dispatched("k1", request, attempt=2, mode="pool")
        clock.advance(0.6)
        hub.run_finished("k1", request, ok=True, attempts=2, wall_s=0.6,
                         cpu_s=0.5, checkpoint=True)
        hub.run_restored("k2", _Request("mcf", "tsb"))
        hub.heartbeat(queued=0, running=0)
        hub.run_finished("k3", _Request("mcf"), ok=False, attempts=3,
                         wall_s=0.2, error="WorkerCrash: signal 9")
        hub.campaign_end(simulated=1)
        hub.close()

        events = stream_events(tmp_path)
        for event in events:
            validate_status_event(event)  # raises on any drift
        assert [e["event"] for e in events] == [
            "campaign_start", "workloads", "run_start", "run_retry",
            "run_start", "run_end", "run_end", "heartbeat", "run_end",
            "campaign_end"]
        # The monotonic offsets never go backwards.
        offsets = [e["t"] for e in events]
        assert offsets == sorted(offsets)
        # Every run_end says what became of its checkpoint write.
        assert [e["checkpoint"] for e in events
                if e["event"] == "run_end"] == [True, None, None]

    def test_validate_rejects_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            validate_status_event({"v": 99, "event": "campaign_start",
                                   "t": 0, "ts": 0, "total_runs": 1,
                                   "workers": 1})

    def test_validate_rejects_unknown_event(self):
        with pytest.raises(ValueError, match="unknown"):
            validate_status_event({"v": STATUS_VERSION, "event": "nope",
                                   "t": 0, "ts": 0})

    def test_validate_rejects_missing_field(self):
        with pytest.raises(ValueError, match="total_runs"):
            validate_status_event({"v": STATUS_VERSION,
                                   "event": "campaign_start",
                                   "t": 0, "ts": 0, "workers": 2})

    def test_validate_rejects_bad_terminal_state(self):
        event = {"v": STATUS_VERSION, "event": "run_end", "t": 0, "ts": 0,
                 "key": "k", "benchmark": "gups", "scheme": "pom",
                 "state": "exploded", "attempts": 1, "wall_s": 0.1,
                 "cpu_s": None, "error": None}
        with pytest.raises(ValueError, match="exploded"):
            validate_status_event(event)
        for state in RUN_END_STATES:
            validate_status_event({**event, "state": state})

    def test_run_end_checkpoint_is_optional_but_checked(self):
        event = {"v": STATUS_VERSION, "event": "run_end", "t": 0, "ts": 0,
                 "key": "k", "benchmark": "gups", "scheme": "pom",
                 "state": "ok", "attempts": 1, "wall_s": 0.1,
                 "cpu_s": None, "error": None}
        validate_status_event(event)  # a stream from before the field
        for written in (True, False, None):
            validate_status_event({**event, "checkpoint": written})
        with pytest.raises(ValueError, match="checkpoint"):
            validate_status_event({**event, "checkpoint": "yes"})

    def test_every_documented_event_has_required_fields(self):
        # The schema table itself is part of the contract EXPERIMENTS.md
        # documents; a rename here must be a deliberate version bump.
        assert set(STATUS_EVENT_FIELDS) == {
            "campaign_start", "workloads", "run_start", "run_retry",
            "run_end", "heartbeat", "campaign_end"}
        assert STATUS_VERSION == 3
        assert STATUS_EVENT_FIELDS["workloads"] == ("compiled",)
        assert not any("cache" in name or "predicted" in name
                       for fields in STATUS_EVENT_FIELDS.values()
                       for name in fields)

    def test_run_events_carry_measurements_not_predictions(self, tmp_path):
        hub, _ = telemetry(tmp_path)
        request = _Request()
        hub.run_dispatched("k1", request, attempt=1, mode="pool")
        hub.run_finished("k1", request, ok=True, attempts=1, wall_s=1.0,
                         cpu_s=0.5)
        hub.run_finished("k2", request, ok=False, attempts=1, wall_s=1.0,
                         error="WorkerCrash: boom")
        hub.run_restored("k3", request)
        hub.close()
        events = stream_events(tmp_path)
        assert not [event for event in events if "predicted_s" in event]
        ends = [event for event in events if event["event"] == "run_end"]
        assert [(e["state"], e["wall_s"], e["cpu_s"]) for e in ends] == [
            ("ok", 1.0, 0.5), ("failed", 1.0, None), ("restored", 0.0, None)]


class TestHeartbeat:
    def test_sample_rate_limited_by_heartbeat_interval(self, tmp_path):
        hub, clock = telemetry(tmp_path, heartbeat_s=1.0)
        hub.campaign_start(4, 2)
        for _ in range(10):  # 10 polls in 0.5s: under the cadence
            clock.advance(0.05)
            hub.sample(queued=4, running=2)
        assert len(hub.snapshot.heartbeats) == 0
        clock.advance(0.6)  # crosses the 1s boundary
        hub.sample(queued=3, running=2)
        assert len(hub.snapshot.heartbeats) == 1
        for _ in range(6):  # 3 more seconds: exactly 3 more beats
            clock.advance(0.5)
            hub.sample(queued=2, running=2)
        assert len(hub.snapshot.heartbeats) == 4
        hub.close()

    def test_busy_fraction_bounded_and_computed(self, tmp_path):
        hub, clock = telemetry(tmp_path)
        hub.campaign_start(2, 2)
        request = _Request()
        clock.advance(10.0)
        hub.run_finished("k1", request, ok=True, attempts=1, wall_s=5.0)
        hub.heartbeat(queued=0, running=1)
        # 5 busy seconds across 2 workers * 10 elapsed = 25%.
        assert hub.snapshot.heartbeats[-1]["busy_frac"] == \
            pytest.approx(0.25)
        hub.run_finished("k2", request, ok=True, attempts=1, wall_s=1000.0)
        hub.heartbeat(queued=0, running=0)
        assert hub.snapshot.heartbeats[-1]["busy_frac"] == 1.0  # clamped
        hub.close()


class TestSnapshotAndTop:
    def test_snapshot_replays_stream(self, tmp_path):
        hub, clock = telemetry(tmp_path)
        request = _Request()
        hub.campaign_start(3, 2)
        hub.workloads_compiled(3)
        hub.run_dispatched("k1", request, attempt=1, mode="pool")
        clock.advance(0.6)
        hub.run_finished("k1", request, ok=True, attempts=1, wall_s=0.6)
        hub.run_restored("k2", request)
        hub.run_finished("k3", request, ok=False, attempts=2, wall_s=0.1,
                         error="WorkerCrash: signal 9")
        hub.campaign_end(simulated=2)
        hub.close()

        snapshot = StatusSnapshot()
        for line in (tmp_path / "status.ndjson").read_text().splitlines():
            snapshot.apply_line(line)
        assert snapshot.finished
        assert (snapshot.completed, snapshot.failed, snapshot.restored) == \
            (1, 1, 1)
        assert snapshot.done == snapshot.total_runs == 3
        assert snapshot.compiled == 3
        assert snapshot.running == {}
        assert snapshot.errors == ["(gups, pom): WorkerCrash: signal 9"]

        view = render_top(snapshot)
        assert "3/3 runs" in view
        assert "1 ok, 1 failed, 1 restored" in view
        assert "100%" in view
        assert "WorkerCrash" in view
        assert "workloads: 3 compiled\n" in view

    def test_snapshot_tolerates_garbage_lines(self):
        snapshot = StatusSnapshot()
        snapshot.apply_line("")
        snapshot.apply_line("{truncated")
        snapshot.apply_line('{"v": 99, "event": "campaign_start"}')
        snapshot.apply_line("[1, 2, 3]")
        assert snapshot.total_runs == 0 and not snapshot.finished

    def test_render_top_mid_flight(self, tmp_path):
        snapshot = StatusSnapshot()
        snapshot.apply({"v": STATUS_VERSION, "event": "campaign_start",
                        "t": 0.0,
                        "ts": 0.0, "total_runs": 4, "workers": 2})
        snapshot.apply({"v": STATUS_VERSION, "event": "run_start", "t": 0.1,
                        "ts": 0.1,
                        "key": "k1", "benchmark": "gups", "scheme": "pom",
                        "attempt": 1, "mode": "pool"})
        view = render_top(snapshot)
        assert "[running]" in view
        assert "(gups, pom) attempt 1 [pool]" in view


class TestStreamHygiene:
    def test_no_stream_without_status_path(self):
        hub = CampaignTelemetry()
        hub.campaign_start(1, 1)
        hub.campaign_end()
        hub.close()  # nothing to close; must not raise

    def test_close_is_idempotent(self, tmp_path):
        hub, _ = telemetry(tmp_path)
        hub.close()
        hub.close()

    def test_lines_are_compact_sorted_json(self, tmp_path):
        hub, _ = telemetry(tmp_path)
        hub.campaign_start(1, 1)
        hub.close()
        line = (tmp_path / "status.ndjson").read_text().splitlines()[0]
        event = json.loads(line)
        assert line == json.dumps(event, sort_keys=True,
                                  separators=(",", ":"))
