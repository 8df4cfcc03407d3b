"""Exception hierarchy for the POM-TLB reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent with another one."""


class AddressError(ReproError):
    """An address is out of range or mis-aligned for the requested use."""


class TranslationFault(ReproError):
    """A virtual address has no mapping in the relevant page table.

    This corresponds to a page fault that the simulated OS would have to
    service; the simulator raises it only when a lookup is performed
    against a page table that was never populated for that address.
    """

    def __init__(self, vaddr: int, space: str = "guest") -> None:
        super().__init__(f"no {space} translation for VA {vaddr:#x}")
        self.vaddr = vaddr
        self.space = space


class TraceFormatError(ReproError):
    """A serialized memory trace could not be parsed or failed validation.

    ``path``, ``lineno`` and ``text`` pinpoint the offending record when
    known, so a multi-gigabyte trace failure is diagnosable without
    re-reading the file.
    """

    def __init__(self, message: str, path: str = "", lineno: int = 0,
                 text: str = "") -> None:
        location = ""
        if path:
            location = f"{path}:{lineno}: " if lineno else f"{path}: "
        detail = f" (record: {text!r})" if text else ""
        super().__init__(f"{location}{message}{detail}")
        self.path = path
        self.lineno = lineno
        self.text = text


class PackedTraceError(ReproError):
    """A packed binary trace container is damaged or unreadable.

    Covers truncation, magic/version mismatches and checksum failures
    on the columnar format (:mod:`repro.workloads.packed`); ``path``
    names the offending file when known.
    """

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class TransientError(ReproError):
    """A failure that may succeed on retry (timeouts, crashed workers).

    The campaign executor retries runs that die with a ``TransientError``
    subclass; every other :class:`ReproError` is treated as permanent and
    fails the run immediately.
    """


class RunTimeout(TransientError):
    """A simulation run exceeded its per-run wall-clock budget."""

    def __init__(self, benchmark: str, scheme: str, timeout_s: float) -> None:
        super().__init__(f"run ({benchmark}, {scheme}) exceeded "
                         f"{timeout_s:g}s timeout")
        self.benchmark = benchmark
        self.scheme = scheme
        self.timeout_s = timeout_s


class WorkerCrash(TransientError):
    """A worker process died without reporting a result."""

    def __init__(self, benchmark: str, scheme: str, exitcode: int) -> None:
        super().__init__(f"worker for ({benchmark}, {scheme}) died with "
                         f"exit code {exitcode}")
        self.benchmark = benchmark
        self.scheme = scheme
        self.exitcode = exitcode


class FaultInjected(TransientError):
    """Raised by the fault-injection harness (:mod:`repro.faults`).

    Transient by design so injected faults exercise the retry machinery;
    a fault that should be permanent corrupts state (e.g. a trace record)
    instead of raising this.
    """


class VerificationError(ReproError):
    """A consistency-audit invariant was violated during a run.

    Permanent by design (never a :class:`TransientError`): retrying a
    deterministic simulation cannot make a broken invariant pass.
    ``invariant`` names the violated check, ``detail`` describes the
    witness state, and ``artifact`` (when set) is the path of a shrunk
    packed trace (``.pwl``) that reproduces the violation.
    """

    def __init__(self, invariant: str, detail: str,
                 artifact: str = "") -> None:
        suffix = f" [repro trace: {artifact}]" if artifact else ""
        super().__init__(f"invariant {invariant!r} violated: {detail}{suffix}")
        self.invariant = invariant
        self.detail = detail
        self.artifact = artifact


class CheckpointError(ReproError):
    """A checkpoint store could not be read or written."""


class RunFailed(ReproError):
    """A campaign run exhausted its attempts and has no result.

    Raised when a figure driver asks the runner for a (benchmark,
    scheme) pair the resilient executor recorded as failed; figure
    rendering catches it and annotates the missing cell.
    """

    def __init__(self, benchmark: str, scheme: str, attempts: int,
                 cause: str) -> None:
        super().__init__(f"run ({benchmark}, {scheme}) failed after "
                         f"{attempts} attempt(s): {cause}")
        self.benchmark = benchmark
        self.scheme = scheme
        self.attempts = attempts
        self.cause = cause
