"""Unit tests for the resilient executor, serial and pooled."""

import dataclasses
import multiprocessing

import pytest

from repro.common.errors import RunTimeout, TraceFormatError
from repro.experiments.runner import ExperimentParams, simulate_run
from repro.faults import NO_FAULTS, FaultPlan
from repro.obs import EventTracer
from repro.obs.sinks import ListSink
from repro.resilience import (
    CheckpointStore,
    RetryPolicy,
    RunRequest,
    execute_runs,
    run_key,
)

TINY = ExperimentParams(num_cores=1, refs_per_core=300, scale=0.02, seed=5)

#: No-sleep policy so retry tests don't wait out real backoff delays.
FAST_RETRY = RetryPolicy(max_retries=2, base_delay_s=0.0, jitter=0.0)


def request(benchmark="gups", scheme="pom", params=TINY):
    return RunRequest(benchmark, scheme, params)


class _StubRun:
    """Stands in for a BenchmarkRun where no checkpoint store is involved."""

    benchmark = "gups"
    scheme = "pom"


class TestRunRequest:
    def test_workload_bytes_stay_out_of_identity(self):
        bare = request()
        packed = RunRequest("gups", "pom", TINY, workload=b"\xa5PACKED" * 8)
        assert packed == bare and hash(packed) == hash(bare)
        assert run_key(packed.benchmark, packed.scheme, packed.params) \
            == run_key(bare.benchmark, bare.scheme, bare.params)
        assert "PACKED" not in repr(packed) and "workload" not in repr(packed)
        assert repr(packed) == repr(bare)


class TestSerial:
    def test_success(self):
        calls = []

        def simulate(req, fault):
            calls.append(req.label)
            return _StubRun()

        outcomes = execute_runs([request()], retry=FAST_RETRY,
                                simulate=simulate)
        assert len(outcomes) == 1
        assert outcomes[0].ok
        assert outcomes[0].attempts == 1
        assert not outcomes[0].restored
        assert calls == ["(gups, pom)"]

    def test_duplicate_requests_execute_once(self):
        calls = []

        def simulate(req, fault):
            calls.append(req.label)
            return _StubRun()

        outcomes = execute_runs([request(), request()], retry=FAST_RETRY,
                                simulate=simulate)
        assert len(outcomes) == 1
        assert len(calls) == 1

    def test_transient_error_retried_to_success(self):
        attempts = []

        def simulate(req, fault):
            attempts.append(1)
            if len(attempts) == 1:
                raise RunTimeout(req.benchmark, req.scheme, 1.0)
            return _StubRun()

        outcomes = execute_runs([request()], retry=FAST_RETRY,
                                simulate=simulate)
        assert outcomes[0].ok
        assert outcomes[0].attempts == 2

    def test_transient_exhaustion_becomes_failure(self):
        def simulate(req, fault):
            raise RunTimeout(req.benchmark, req.scheme, 1.0)

        outcomes = execute_runs([request()], retry=FAST_RETRY,
                                simulate=simulate)
        outcome = outcomes[0]
        assert not outcome.ok
        assert outcome.failure.error.type == "RunTimeout"
        assert outcome.failure.attempts == FAST_RETRY.max_retries + 1

    def test_permanent_error_fails_immediately(self):
        calls = []

        def simulate(req, fault):
            calls.append(1)
            raise TraceFormatError("corrupt")

        outcomes = execute_runs([request()], retry=FAST_RETRY,
                                simulate=simulate)
        assert not outcomes[0].ok
        assert outcomes[0].failure.error.type == "TraceFormatError"
        assert len(calls) == 1

    def test_crash_fault_degrades_to_worker_crash(self):
        plan = FaultPlan.parse("crash@gups/pom#*")
        outcomes = execute_runs([request()], retry=FAST_RETRY, faults=plan,
                                simulate=lambda req, fault: _StubRun())
        assert outcomes[0].failure.error.type == "WorkerCrash"

    def test_hang_fault_degrades_to_timeout(self):
        plan = FaultPlan.parse("hang@gups/pom#*")
        outcomes = execute_runs([request()], retry=FAST_RETRY, faults=plan,
                                simulate=lambda req, fault: _StubRun())
        assert outcomes[0].failure.error.type == "RunTimeout"

    def test_single_crash_recovers_on_retry(self):
        plan = FaultPlan.parse("crash@gups/pom#1")
        outcomes = execute_runs([request()], retry=FAST_RETRY, faults=plan,
                                simulate=lambda req, fault: _StubRun())
        assert outcomes[0].ok
        assert outcomes[0].attempts == 2

    def test_interrupt_fault_raises_keyboard_interrupt(self):
        plan = FaultPlan.parse("interrupt#1")
        with pytest.raises(KeyboardInterrupt):
            execute_runs([request()], retry=FAST_RETRY, faults=plan,
                         simulate=lambda req, fault: _StubRun())

    def test_on_outcome_called_per_request(self):
        seen = []
        execute_runs([request(), request(scheme="tsb")], retry=FAST_RETRY,
                     simulate=lambda req, fault: _StubRun(),
                     on_outcome=lambda outcome: seen.append(
                         outcome.request.scheme))
        assert seen == ["pom", "tsb"]


class TestCheckpointIntegration:
    def test_restored_run_skips_execution(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck.jsonl"))
        run = simulate_run("gups", "pom", TINY)
        store.put(run_key("gups", "pom", TINY), run)
        calls = []
        outcomes = execute_runs([request()], retry=FAST_RETRY,
                                checkpoint=store,
                                simulate=lambda req, fault: calls.append(1))
        assert outcomes[0].restored
        assert outcomes[0].ok
        assert calls == []

    def test_success_lands_in_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        store = CheckpointStore(path)
        execute_runs([request()], retry=FAST_RETRY, checkpoint=store,
                     simulate=lambda req, fault: simulate_run(
                         req.benchmark, req.scheme, req.params))
        assert run_key("gups", "pom", TINY) in CheckpointStore(path)

    def test_checkpoint_write_failure_is_warning(self, tmp_path, capsys):
        store = CheckpointStore(str(tmp_path / "ck.jsonl"),
                                faults=FaultPlan.parse("ckpt-io#1"))
        outcomes = execute_runs([request()], retry=FAST_RETRY,
                                checkpoint=store,
                                simulate=lambda req, fault: simulate_run(
                                    req.benchmark, req.scheme, req.params))
        assert outcomes[0].ok  # the campaign keeps the run either way
        assert "checkpoint write failed" in capsys.readouterr().err


class TestEvents:
    def _tracer(self):
        sink = ListSink()
        return EventTracer([sink]), sink

    def test_complete_and_retry_and_failure_events(self):
        tracer, sink = self._tracer()
        plan = FaultPlan.parse("crash@gups/pom#1,crash@gups/tsb#*")
        execute_runs([request(), request(scheme="tsb")],
                     retry=RetryPolicy(max_retries=1, base_delay_s=0.0),
                     faults=plan, tracer=tracer,
                     simulate=lambda req, fault: _StubRun())
        types = [event["type"] for event in sink.events]
        assert types.count("run_retry") == 2      # one per scheme
        assert types.count("run_complete") == 1   # pom recovered
        assert types.count("run_failure") == 1    # tsb exhausted
        failure = [e for e in sink.events if e["type"] == "run_failure"][0]
        assert failure["scheme"] == "tsb"
        assert "WorkerCrash" in failure["error"]


class TestPooled:
    def test_pooled_matches_serial_results(self):
        requests = [request("gups", "pom"), request("gcc", "baseline")]
        serial = execute_runs(requests, workers=0, retry=FAST_RETRY)
        pooled = execute_runs(requests, workers=2, retry=FAST_RETRY)
        for s, p in zip(serial, pooled):
            assert s.ok and p.ok
            assert s.run.performance == p.run.performance
            assert s.run.result.penalty_cycles == p.run.result.penalty_cycles

    def test_pooled_crash_isolated_and_reported(self):
        plan = FaultPlan.parse("crash@gups/pom#*")
        outcomes = execute_runs(
            [request("gups", "pom"), request("gcc", "baseline")],
            workers=2, retry=RetryPolicy(max_retries=0), faults=plan)
        by_scheme = {o.request.scheme: o for o in outcomes}
        assert not by_scheme["pom"].ok
        assert by_scheme["pom"].failure.error.type == "WorkerCrash"
        assert "134" in by_scheme["pom"].failure.error.message
        assert by_scheme["baseline"].ok  # the other run is unharmed

    def test_pooled_hang_reaped_by_timeout(self):
        plan = FaultPlan.parse("hang@gups/pom#*")
        outcomes = execute_runs([request("gups", "pom")], workers=2,
                                timeout_s=0.5,
                                retry=RetryPolicy(max_retries=0),
                                faults=plan)
        assert not outcomes[0].ok
        assert outcomes[0].failure.error.type == "RunTimeout"


@pytest.fixture
def forks(monkeypatch):
    """Counts pool-worker constructions (one fork each)."""
    from repro.resilience import workers

    started = []

    class CountingWorker(workers._Worker):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(workers, "_Worker", CountingWorker)
    return started


def seeded(count, benchmark="gups", scheme="pom"):
    return [request(benchmark, scheme,
                    dataclasses.replace(TINY, seed=seed))
            for seed in range(count)]


class TestReusedPool:
    def test_clean_campaign_forks_one_worker_per_slot(self, forks):
        outcomes = execute_runs(seeded(5), workers=2, retry=FAST_RETRY)
        assert all(outcome.ok for outcome in outcomes)
        assert len(forks) == 2
        assert multiprocessing.active_children() == []

    def test_restored_campaign_forks_nothing(self, forks, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck.jsonl"))
        store.put(run_key("gups", "pom", TINY),
                  simulate_run("gups", "pom", TINY))
        outcomes = execute_runs([request()], workers=2, retry=FAST_RETRY,
                                checkpoint=store)
        assert outcomes[0].restored
        assert forks == []

    def test_crash_forks_exactly_one_replacement(self, forks):
        plan = FaultPlan.parse("crash@gups/pom#1")
        outcomes = execute_runs([request()], workers=2, retry=FAST_RETRY,
                                faults=plan)
        assert outcomes[0].ok and outcomes[0].attempts == 2
        assert len(forks) == 2  # the first worker, then its replacement
        assert not forks[0].alive
        assert multiprocessing.active_children() == []

    def test_timeout_forks_exactly_one_replacement(self, forks):
        plan = FaultPlan.parse("hang@gups/pom#1")
        outcomes = execute_runs([request()], workers=2, timeout_s=0.5,
                                retry=FAST_RETRY, faults=plan)
        assert outcomes[0].ok and outcomes[0].attempts == 2
        assert len(forks) == 2
        assert multiprocessing.active_children() == []

    def test_worker_serves_on_after_a_raising_attempt(self, forks):
        plan = FaultPlan.parse("corrupt-trace@gups/pom#*")
        requests = seeded(2) + seeded(2, "gcc", "baseline")
        outcomes = execute_runs(requests, workers=2, retry=FAST_RETRY,
                                faults=plan)
        assert [outcome.ok for outcome in outcomes] == \
            [False, False, True, True]
        assert outcomes[0].failure.error.type == "TraceFormatError"
        assert len(forks) == 2

    def test_second_attempt_reports_its_own_measurement(self, forks):
        telemetry = _RecordingTelemetry()
        outcomes = execute_runs(seeded(4), workers=2, retry=FAST_RETRY,
                                telemetry=telemetry)
        assert all(outcome.ok for outcome in outcomes)
        assert len(forks) == 2  # so two attempts were served second
        finished = [kwargs for _, kwargs in telemetry.of("run_finished")]
        assert len(finished) == 4
        for kwargs in finished:
            assert 0 < kwargs["cpu_s"] <= kwargs["wall_s"] + 0.005

    def test_no_child_outlives_an_exhausted_failure(self, forks):
        plan = FaultPlan.parse("crash@gups/pom#*")
        outcomes = execute_runs(
            [request("gups", "pom"), request("gcc", "baseline")],
            workers=2, retry=RetryPolicy(max_retries=1, base_delay_s=0.0),
            faults=plan)
        assert not outcomes[0].ok and outcomes[1].ok
        assert outcomes[0].failure.attempts == 2
        assert multiprocessing.active_children() == []

    def test_no_child_outlives_an_interrupt(self, forks):
        plan = FaultPlan.parse("interrupt@gcc/baseline")
        requests = seeded(2) + [request("gcc", "baseline")]
        with pytest.raises(KeyboardInterrupt):
            execute_runs(requests, workers=2, retry=FAST_RETRY, faults=plan)
        # Both slots forked; the interrupt came as one of them sat idle.
        assert len(forks) == 2
        assert multiprocessing.active_children() == []


class _FakeWorker:
    """Stands in for a pool worker: answers when the fake wait says so."""

    busy = []

    def __init__(self, ctx_mp, timeout_s):
        self.alive = True
        self.attempt = None
        self.deadline = None
        self.done = False
        self.conn = object()
        self.process = type("Process", (), {"sentinel": object()})()

    def start(self, attempt, fault):
        self.attempt = attempt
        self.done = False
        _FakeWorker.busy.append(self)

    def poll(self):
        if not self.done:
            return None
        _FakeWorker.busy.remove(self)
        return ("ok", _StubRun(), {"wall_s": 0.0, "cpu_s": 0.0})

    def stop(self):
        self.alive = False

    def kill(self):
        self.alive = False


class TestPooledDispatch:
    def test_never_blocks_while_a_finished_result_is_ready(self, monkeypatch):
        """Every wait happens with full slots and no uncollected result;
        a worker's result wakes the dispatcher, which refills its slot
        before it waits again.  The dispatcher never sleeps."""
        from repro.resilience import workers

        waits = []

        def fake_wait(objects, timeout=None):
            busy = list(_FakeWorker.busy)
            assert not any(worker.done for worker in busy)
            waits.append((len(busy), timeout))
            busy[0].done = True  # the oldest attempt reports
            return [busy[0].conn]

        def no_sleep(seconds):
            raise AssertionError(f"pooled dispatcher slept {seconds}s")

        _FakeWorker.busy = []
        monkeypatch.setattr(workers, "_Worker", _FakeWorker)
        monkeypatch.setattr(workers, "_wait", fake_wait)
        monkeypatch.setattr(workers.time, "sleep", no_sleep)
        requests = [request(params=ExperimentParams(seed=seed))
                    for seed in range(5)]
        outcomes = execute_runs(requests, workers=2, retry=FAST_RETRY)
        assert all(outcome.ok for outcome in outcomes)
        # Two slots stay busy until the queue drains; no timeout bound
        # without deadlines, backoff or telemetry.
        assert waits == [(2, None)] * 4 + [(1, None)]

    #: Planned requests (by ``refs_per_core``) with two duplicate keys,
    #: and the order their attempts must start in: request order, each
    #: distinct key once, nothing reordered by expected length.
    REFS = [100, 900, 300, 900, 500, 100, 700]
    PLANNED = [100, 900, 300, 500, 700]

    def _requests(self):
        return [request(params=dataclasses.replace(TINY, refs_per_core=n))
                for n in self.REFS]

    def test_pooled_attempts_start_in_request_order(self, monkeypatch):
        from repro.resilience import workers

        started = []

        class _RecordingWorker(_FakeWorker):
            def start(self, attempt, fault):
                started.append(attempt.request.params.refs_per_core)
                super().start(attempt, fault)

        def fake_wait(objects, timeout=None):
            _FakeWorker.busy[0].done = True  # the oldest attempt reports
            return [_FakeWorker.busy[0].conn]

        _FakeWorker.busy = []
        monkeypatch.setattr(workers, "_Worker", _RecordingWorker)
        monkeypatch.setattr(workers, "_wait", fake_wait)
        pooled = execute_runs(self._requests(), workers=2, retry=FAST_RETRY)
        assert started == self.PLANNED
        assert [o.request.params.refs_per_core for o in pooled] == self.PLANNED

    def test_serial_attempts_start_in_request_order(self):
        started = []

        def simulate(req, fault):
            started.append(req.params.refs_per_core)
            return _StubRun()

        serial = execute_runs(self._requests(), retry=FAST_RETRY,
                              simulate=simulate)
        assert started == self.PLANNED
        assert [o.request.params.refs_per_core for o in serial] == self.PLANNED

    def test_wait_is_bounded_by_deadline_backoff_and_heartbeat(self):
        from repro.resilience.workers import _Attempt, _wait_bound

        worker = type("W", (), {"deadline": 12.0})()
        backing_off = _Attempt(request(), "k", 2, ready_at=10.5)
        assert _wait_bound([worker], [], 2, 10.0, None) == 2.0
        assert _wait_bound([worker], [backing_off], 2, 10.0, None) == 0.5
        # A full pool cannot launch, so a backoff end is no reason to wake.
        assert _wait_bound([worker], [backing_off], 1, 10.0, None) == 2.0
        assert _wait_bound([worker], [], 2, 10.0, 0.25) == 0.25
        assert _wait_bound([], [], 2, 10.0, None) is None
        assert _wait_bound([worker], [], 2, 13.0, None) == 0.0


class _RecordingTelemetry:
    """Records every executor hook call; enabled so gates stay open."""

    enabled = True

    def __init__(self):
        self.calls = []

    def _record(self, name):
        def hook(*args, **kwargs):
            self.calls.append((name, args, kwargs))
        return hook

    def __getattr__(self, name):
        return self._record(name)

    def of(self, name):
        return [(args, kwargs) for n, args, kwargs in self.calls
                if n == name]


class TestTelemetryHooks:
    def test_serial_lifecycle_hooks(self):
        telemetry = _RecordingTelemetry()
        execute_runs([request()], retry=FAST_RETRY,
                     simulate=lambda req, fault: _StubRun(),
                     telemetry=telemetry)
        names = [name for name, _, _ in telemetry.calls]
        assert names[0] == "run_dispatched"
        assert "run_finished" in names
        (args, kwargs) = telemetry.of("run_finished")[0]
        assert kwargs["ok"] is True
        assert kwargs["attempts"] == 1
        assert kwargs["wall_s"] >= 0
        assert kwargs["cpu_s"] is not None  # parent-measured in serial
        assert kwargs["checkpoint"] is None  # no store

    def test_retry_and_failure_hooks(self):
        telemetry = _RecordingTelemetry()
        plan = FaultPlan.parse("crash@gups/pom#*")
        execute_runs([request()],
                     retry=RetryPolicy(max_retries=1, base_delay_s=0.0,
                                       jitter=0.0),
                     faults=plan, telemetry=telemetry,
                     simulate=lambda req, fault: _StubRun())
        assert len(telemetry.of("run_retry")) == 1
        (_, kwargs) = telemetry.of("run_retry")[0]
        assert "WorkerCrash" in kwargs["error"]
        (_, kwargs) = telemetry.of("run_finished")[0]
        assert kwargs["ok"] is False
        assert "WorkerCrash" in kwargs["error"]

    def test_restored_run_hook(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck.jsonl"))
        run = simulate_run("gups", "pom", TINY)
        store.put(run_key("gups", "pom", TINY), run)
        telemetry = _RecordingTelemetry()
        execute_runs([request()], retry=FAST_RETRY, checkpoint=store,
                     telemetry=telemetry)
        names = [name for name, _, _ in telemetry.calls]
        assert "run_restored" in names
        assert "run_dispatched" not in names

    def test_checkpoint_write_hook(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck.jsonl"))
        telemetry = _RecordingTelemetry()
        execute_runs([request()], retry=FAST_RETRY, checkpoint=store,
                     telemetry=telemetry,
                     simulate=lambda req, fault: simulate_run(
                         req.benchmark, req.scheme, req.params))
        (_, kwargs) = telemetry.of("run_finished")[0]
        assert kwargs["checkpoint"] is True
        assert not [name for name, _, _ in telemetry.calls
                    if name.startswith("checkpoint")]

    def test_failed_checkpoint_write_reaches_run_finished(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ck.jsonl"),
                                faults=FaultPlan.parse("ckpt-io#1"))
        telemetry = _RecordingTelemetry()
        execute_runs([request()], retry=FAST_RETRY, checkpoint=store,
                     telemetry=telemetry,
                     simulate=lambda req, fault: simulate_run(
                         req.benchmark, req.scheme, req.params))
        (_, kwargs) = telemetry.of("run_finished")[0]
        assert kwargs["ok"] is True and kwargs["checkpoint"] is False

    def test_pooled_measurements_ride_the_result_pipe(self):
        telemetry = _RecordingTelemetry()
        outcomes = execute_runs([request()], workers=2, retry=FAST_RETRY,
                                telemetry=telemetry)
        assert outcomes[0].ok
        (_, kwargs) = telemetry.of("run_finished")[0]
        assert kwargs["ok"] is True
        assert kwargs["wall_s"] > 0        # measured inside the worker
        assert kwargs["cpu_s"] is not None
        (_, kwargs) = telemetry.of("run_dispatched")[0]
        assert kwargs["mode"] == "pool"

    def test_null_telemetry_default_records_nothing(self):
        # The default path must not even look up hook attributes.
        from repro.obs import NO_TELEMETRY
        outcomes = execute_runs([request()], retry=FAST_RETRY,
                                simulate=lambda req, fault: _StubRun(),
                                telemetry=NO_TELEMETRY)
        assert outcomes[0].ok
