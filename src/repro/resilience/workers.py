"""The resilient run executor: isolation, timeouts, retries, checkpoints.

``execute_runs`` takes the campaign's full list of (benchmark, scheme,
params) requests and returns one :class:`RunOutcome` per request.  Two
execution modes share every other behaviour:

* **serial** (``workers <= 1``) — runs execute in-process, exactly like
  the pre-resilience campaign.  Process-level faults (crash, hang)
  degrade to synthetic :class:`~repro.common.errors.WorkerCrash` /
  :class:`~repro.common.errors.RunTimeout` errors, and per-run timeouts
  are not enforced (there is no one to kill the run).
* **process pool** (``workers >= 2``) — up to ``workers`` long-lived
  child processes each serve attempt after attempt: a request goes out
  over the worker's pipe and its result comes back the same way.  A
  crash or hang kills only that attempt and its worker, which a fresh
  one replaces when a slot needs it.  Hung workers are terminated at
  ``timeout_s``; dead workers are detected by exit code.

On top of either mode: transient failures are retried with the
:class:`~repro.resilience.retry.RetryPolicy` backoff, successes are
persisted to the optional :class:`~repro.resilience.checkpoint.CheckpointStore`
(restored runs skip execution entirely), and every retry / failure /
completion goes to the campaign telemetry (the NDJSON status stream).
A checkpoint write failure is a warning, never fatal: losing durability
must not lose the campaign.  ``KeyboardInterrupt`` tears down children
and propagates, leaving the checkpoint resumable.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..common.errors import RunTimeout, WorkerCrash
from ..faults import NO_FAULTS, FaultPlan
from ..obs import NO_TELEMETRY
from .checkpoint import CheckpointStore, run_key
from .retry import RetryPolicy, is_transient

#: Exit code a crash-injected worker dies with (SIGABRT convention).
CRASH_EXIT_CODE = 134

#: Blocks until a worker's result pipe or process sentinel is ready, or
#: the timeout passes (the pooled dispatcher's only wait).
_wait = multiprocessing.connection.wait


@dataclass(frozen=True)
class RunRequest:
    """One (benchmark, scheme, params) simulation the campaign needs."""

    benchmark: str
    scheme: str
    params: object  # ExperimentParams; duck-typed to avoid an import cycle
    #: The packed workload (:func:`repro.workloads.packed.encode_workload`
    #: bytes) the run replays; empty means the run generates its own.
    #: Kept out of equality, ``repr`` and the checkpoint key: replaying
    #: a compiled workload is bit-identical to regenerating it.
    workload: bytes = field(default=b"", repr=False, compare=False)

    @property
    def label(self) -> str:
        return f"({self.benchmark}, {self.scheme})"


@dataclass(frozen=True)
class ErrorInfo:
    """Process-boundary-safe description of a failed attempt."""

    type: str
    message: str
    transient: bool

    @classmethod
    def from_exception(cls, error: BaseException) -> "ErrorInfo":
        return cls(type=error.__class__.__name__, message=str(error),
                   transient=is_transient(error))


@dataclass(frozen=True)
class RunFailure:
    """A run that exhausted its attempts; what reports annotate."""

    benchmark: str
    scheme: str
    error: ErrorInfo
    attempts: int


@dataclass
class RunOutcome:
    """Terminal state of one request: a run, or a structured failure."""

    request: RunRequest
    key: str
    run: Optional[object] = None        # BenchmarkRun on success
    failure: Optional[RunFailure] = None
    attempts: int = 0
    restored: bool = False              # satisfied from the checkpoint

    @property
    def ok(self) -> bool:
        return self.run is not None


# -- child-process side --------------------------------------------------------

def _measurement(wall_s: float, cpu_s: Optional[float]) -> dict:
    """The attempt measurement that rides the result pipe.

    Workers never emit telemetry: they measure their own attempt and
    ship the numbers home with the result, which is what makes campaign
    telemetry multiprocessing-safe without locks.
    """
    return {"wall_s": wall_s, "cpu_s": cpu_s}


def _serve_attempt(conn, request: RunRequest,
                   fault: Optional[Tuple[str, int]]) -> None:
    """Run one attempt in a pool worker and report it over ``conn``."""
    started = time.monotonic()
    started_cpu = time.process_time()
    try:
        if fault is not None:
            kind = fault[0]
            if kind == "crash":
                os._exit(CRASH_EXIT_CODE)
            if kind == "hang":
                while True:  # parked until the parent's timeout kills us
                    time.sleep(60)
        run = simulate_request(request, fault)
        meas = _measurement(time.monotonic() - started,
                            time.process_time() - started_cpu)
        conn.send(("ok", run, meas))
    except BaseException as error:  # noqa: BLE001 - must cross the pipe
        meas = _measurement(time.monotonic() - started,
                            time.process_time() - started_cpu)
        conn.send(("error", ErrorInfo.from_exception(error), meas))


def _worker_loop(conn) -> None:
    """A pool worker's life: serve ``(request, fault)`` jobs until ``None``."""
    try:
        for job in iter(conn.recv, None):
            _serve_attempt(conn, *job)
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # the parent went away or is tearing the pool down
    finally:
        conn.close()


def simulate_request(request: RunRequest, fault: Optional[Tuple[str, int]],
                     obs=None):
    """One attempt of ``request``, serial or in a pool worker.

    A request that carries packed workload bytes replays them; one that
    carries none generates its workload from the benchmark profile.
    Pool workers receive the request, bytes included, pickled over
    their pipe (17 bytes per reference).
    """
    from ..experiments.runner import simulate_run
    from ..workloads.packed import decode_container

    workload = (decode_container(request.workload).workload()
                if request.workload else None)
    return simulate_run(request.benchmark, request.scheme, request.params,
                        fault=fault, obs=obs, workload=workload)


# -- the executor --------------------------------------------------------------

class _Attempt:
    """Bookkeeping for one queued or running attempt of a request."""

    __slots__ = ("request", "key", "number", "ready_at")

    def __init__(self, request: RunRequest, key: str, number: int,
                 ready_at: float = 0.0) -> None:
        self.request = request
        self.key = key
        self.number = number          # 1-based attempt counter
        self.ready_at = ready_at      # monotonic time gate (backoff)


def execute_runs(requests: List[RunRequest],
                 workers: int = 0,
                 timeout_s: float = 0.0,
                 retry: Optional[RetryPolicy] = None,
                 faults: FaultPlan = NO_FAULTS,
                 checkpoint: Optional[CheckpointStore] = None,
                 on_outcome: Optional[Callable[[RunOutcome], None]] = None,
                 simulate: Optional[Callable] = None,
                 telemetry=NO_TELEMETRY,
                 ) -> List[RunOutcome]:
    """Execute every request; never raises for per-run failures.

    Returns outcomes in request order.  Raises ``KeyboardInterrupt``
    (after killing any children) when interrupted — the checkpoint store,
    if any, already holds every finished run.

    ``simulate`` overrides the in-process simulation callable
    (``(request, fault) -> BenchmarkRun``) and applies to serial mode
    only — worker processes always run :func:`simulate_request`.  The
    campaign uses it to thread per-run observability through in-process
    execution.

    Both modes start attempts in request order, duplicates collapsed
    to their first occurrence; retries join the back of the queue.

    ``telemetry`` (default :data:`repro.obs.NO_TELEMETRY`, the null
    object) receives run-lifecycle hooks — dispatched, retried,
    finished (with worker wall/CPU measurements riding the result pipe
    and the checkpoint write's result), restored, and heartbeat samples.
    """
    retry = retry or RetryPolicy()
    outcomes: Dict[str, RunOutcome] = {}
    order: List[str] = []
    todo: List[_Attempt] = []
    for request in requests:
        key = run_key(request.benchmark, request.scheme, request.params)
        if key in outcomes:
            continue  # duplicate request; one execution serves both
        order.append(key)
        restored = checkpoint.get(key) if checkpoint is not None else None
        if restored is not None:
            outcomes[key] = RunOutcome(request=request, key=key, run=restored,
                                       restored=True)
            if telemetry.enabled:
                telemetry.run_restored(key, request)
            if on_outcome:
                on_outcome(outcomes[key])
        else:
            outcomes[key] = RunOutcome(request=request, key=key)
            todo.append(_Attempt(request, key, 1))

    context = _Context(retry=retry, faults=faults, checkpoint=checkpoint,
                       timeout_s=timeout_s,
                       on_outcome=on_outcome, outcomes=outcomes,
                       telemetry=telemetry)
    if todo:
        if workers and workers > 1:
            _run_pooled(todo, workers, context)
        else:
            _run_serial(todo, context, simulate or simulate_request)
    return [outcomes[key] for key in order]


@dataclass
class _Context:
    """Shared executor state threaded through both execution modes."""

    retry: RetryPolicy
    faults: FaultPlan
    checkpoint: Optional[CheckpointStore]
    timeout_s: float
    on_outcome: Optional[Callable[[RunOutcome], None]]
    outcomes: Dict[str, RunOutcome]
    telemetry: object = NO_TELEMETRY

    def take_fault(self, request: RunRequest) -> Optional[Tuple[str, int]]:
        if not self.faults.enabled:
            return None
        fault = self.faults.take_run_fault(request.benchmark, request.scheme)
        if fault is not None and fault[0] == "interrupt":
            raise KeyboardInterrupt(
                f"injected interrupt before {request.label}")
        return fault

    def succeed(self, attempt: _Attempt, run,
                meas: Optional[dict] = None) -> None:
        outcome = self.outcomes[attempt.key]
        outcome.run = run
        outcome.attempts = attempt.number
        written = None  # no store
        if self.checkpoint is not None:
            try:
                self.checkpoint.put(attempt.key, run)
                written = True
            except OSError as error:
                written = False
                print(f"warning: checkpoint write failed ({error}); "
                      f"continuing without durability for this run",
                      file=sys.stderr)
        if self.telemetry.enabled:
            meas = meas or {}
            self.telemetry.run_finished(
                attempt.key, attempt.request, ok=True,
                attempts=attempt.number,
                wall_s=meas.get("wall_s", 0.0),
                cpu_s=meas.get("cpu_s"), checkpoint=written)
        if self.on_outcome:
            self.on_outcome(outcome)

    def fail_or_retry(self, attempt: _Attempt, error: ErrorInfo,
                      meas: Optional[dict] = None) -> Optional[_Attempt]:
        """Returns the next attempt to queue, or None (run failed)."""
        if error.transient and attempt.number <= self.retry.max_retries:
            delay = self.retry.delay_s(attempt.key, attempt.number)
            if self.telemetry.enabled:
                self.telemetry.run_retry(
                    attempt.key, attempt.request, attempt.number,
                    error=f"{error.type}: {error.message}", delay_s=delay)
            return _Attempt(attempt.request, attempt.key, attempt.number + 1,
                            ready_at=time.monotonic() + delay)
        outcome = self.outcomes[attempt.key]
        outcome.failure = RunFailure(benchmark=attempt.request.benchmark,
                                     scheme=attempt.request.scheme,
                                     error=error, attempts=attempt.number)
        outcome.attempts = attempt.number
        if self.telemetry.enabled:
            meas = meas or {}
            self.telemetry.run_finished(
                attempt.key, attempt.request, ok=False,
                attempts=attempt.number,
                wall_s=meas.get("wall_s", 0.0),
                cpu_s=meas.get("cpu_s"),
                error=f"{error.type}: {error.message}")
        if self.on_outcome:
            self.on_outcome(outcome)
        return None


# -- serial mode ---------------------------------------------------------------

def _run_serial(todo: List[_Attempt], ctx: _Context,
                simulate: Callable) -> None:
    queue = deque(todo)
    telemetry = ctx.telemetry
    while queue:
        attempt = queue.popleft()
        wait = attempt.ready_at - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        fault = ctx.take_fault(attempt.request)
        if telemetry.enabled:
            telemetry.run_dispatched(attempt.key, attempt.request,
                                     attempt.number, mode="serial")
        started = time.monotonic()
        started_cpu = time.process_time()
        try:
            if fault is not None and fault[0] == "crash":
                # No process isolation to die in: synthesise the error the
                # pooled mode would have reported.
                raise WorkerCrash(attempt.request.benchmark,
                                  attempt.request.scheme, CRASH_EXIT_CODE)
            if fault is not None and fault[0] == "hang":
                raise RunTimeout(attempt.request.benchmark,
                                 attempt.request.scheme, ctx.timeout_s)
            run = simulate(attempt.request, fault)
        except Exception as error:  # KeyboardInterrupt propagates
            retry_attempt = ctx.fail_or_retry(
                attempt, ErrorInfo.from_exception(error),
                meas=_measurement(time.monotonic() - started,
                                  time.process_time() - started_cpu))
            if retry_attempt is not None:
                queue.append(retry_attempt)
            if telemetry.enabled:
                telemetry.sample(queued=len(queue), running=0)
            continue
        ctx.succeed(attempt, run,
                    meas=_measurement(time.monotonic() - started,
                                      time.process_time() - started_cpu))
        if telemetry.enabled:
            telemetry.sample(queued=len(queue), running=0)


# -- pooled mode ---------------------------------------------------------------

def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class _Worker:
    """One long-lived child process that serves attempt after attempt.

    ``alive`` turns False once the worker crashed, was killed at its
    deadline or was stopped; it never serves again.
    """

    def __init__(self, ctx_mp, timeout_s: float) -> None:
        self.timeout_s = timeout_s
        self.conn, child_conn = ctx_mp.Pipe()
        self.process = ctx_mp.Process(target=_worker_loop,
                                      args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()
        self.alive = True
        self.attempt: Optional[_Attempt] = None
        self.started = 0.0
        self.deadline: Optional[float] = None

    def start(self, attempt: _Attempt,
              fault: Optional[Tuple[str, int]]) -> None:
        """Hand an idle worker its next attempt."""
        self.attempt = attempt
        self.started = time.monotonic()
        self.deadline = ((self.started + self.timeout_s)
                         if self.timeout_s else None)
        try:
            self.conn.send((attempt.request, fault))
        except OSError:
            pass  # died while idle: poll() reports the crash

    def _synthesized(self, error) -> Tuple[str, object, dict]:
        """An error message for attempts that never reported themselves
        (crashed or killed children): wall time is parent-measured."""
        return ("error", ErrorInfo.from_exception(error),
                _measurement(time.monotonic() - self.started, None))

    def poll(self) -> Optional[Tuple[str, object, dict]]:
        """Non-blocking check: a ("ok"|"error", payload, meas) message, a
        synthesised error for crash/timeout, or None (still running)."""
        request = self.attempt.request
        if self.conn.poll():
            try:
                return self.conn.recv()
            except EOFError:
                pass  # died mid-attempt
        elif self.process.is_alive():
            if self.deadline is None or time.monotonic() <= self.deadline:
                return None
            self.kill()
            return self._synthesized(RunTimeout(
                request.benchmark, request.scheme, self.timeout_s))
        self.kill()
        return self._synthesized(WorkerCrash(
            request.benchmark, request.scheme, self.process.exitcode or 0))

    def stop(self) -> None:
        """Ask an idle worker to exit, and reap it."""
        try:
            self.conn.send(None)
        except OSError:
            pass  # already gone
        self.process.join(timeout=5)
        self.kill()

    def kill(self) -> None:
        self.alive = False
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
        self.process.join()
        self.conn.close()


def _wait_bound(running: Sequence[_Worker], queue: Sequence[_Attempt],
                workers: int, now: float,
                heartbeat_s: Optional[float]) -> Optional[float]:
    """Seconds the dispatcher may block, or None (until a worker is ready).

    The nearest of: a running attempt's timeout deadline, the earliest
    backoff end when a slot is free, and the telemetry heartbeat.
    """
    bounds = [worker.deadline for worker in running
              if worker.deadline is not None]
    if queue and len(running) < workers:
        bounds.append(min(attempt.ready_at for attempt in queue))
    if heartbeat_s:
        bounds.append(now + heartbeat_s)
    return max(0.0, min(bounds) - now) if bounds else None


def _run_pooled(todo: List[_Attempt], workers: int, ctx: _Context) -> None:
    """Dispatch attempts to at most ``workers`` reused child processes.

    An answered worker goes back on the idle list and takes the next
    ready attempt; a crashed or timed-out one is dropped, and a new
    worker is forked only when a free slot finds no idle one.  Event
    driven: the loop blocks in :data:`_wait` on every running worker's
    result pipe and process sentinel, bounded by :func:`_wait_bound`,
    and loops again at once whenever a worker finished so its slot
    refills without waiting.  Idle workers are stopped when the queue
    drains; on any exception every worker is killed.
    """
    ctx_mp = _mp_context()
    telemetry = ctx.telemetry
    heartbeat_s = getattr(telemetry, "heartbeat_s", None)
    if not telemetry.enabled or not isinstance(heartbeat_s, (int, float)):
        heartbeat_s = None  # no heartbeat cadence to keep
    queue = deque(todo)
    running: List[_Worker] = []
    idle: List[_Worker] = []
    try:
        while queue or running:
            now = time.monotonic()
            # Launch ready attempts into free slots.
            launched = True
            while launched and len(running) < workers and queue:
                launched = False
                for _ in range(len(queue)):
                    attempt = queue.popleft()
                    if attempt.ready_at <= now:
                        fault = ctx.take_fault(attempt.request)
                        if telemetry.enabled:
                            telemetry.run_dispatched(
                                attempt.key, attempt.request,
                                attempt.number, mode="pool")
                        worker = (idle.pop() if idle
                                  else _Worker(ctx_mp, ctx.timeout_s))
                        running.append(worker)
                        worker.start(attempt, fault)
                        launched = True
                        break
                    queue.append(attempt)  # still backing off; rotate
            # Collect finished workers.
            still_running: List[_Worker] = []
            for worker in running:
                message = worker.poll()
                if message is None:
                    still_running.append(worker)
                    continue
                if worker.alive:
                    idle.append(worker)
                status, payload, meas = message
                if status == "ok":
                    ctx.succeed(worker.attempt, payload, meas=meas)
                else:
                    retry_attempt = ctx.fail_or_retry(worker.attempt, payload,
                                                      meas=meas)
                    if retry_attempt is not None:
                        queue.append(retry_attempt)
            finished = len(still_running) < len(running)
            running = still_running
            if telemetry.enabled:
                telemetry.sample(queued=len(queue), running=len(running))
            if finished or not (queue or running):
                continue  # refill the freed slots now
            ready = [worker.conn for worker in running]
            ready.extend(worker.process.sentinel for worker in running)
            _wait(ready, _wait_bound(running, queue, workers,
                                     time.monotonic(), heartbeat_s))
        for worker in idle:
            worker.stop()
    except BaseException:
        for worker in running + idle:
            worker.kill()
        raise
