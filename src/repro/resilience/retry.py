"""Retry policy: error classification and deterministic backoff.

A failed run is retried only when its error is *transient* — a timeout,
a crashed worker, or an injected :class:`~repro.common.errors.FaultInjected`.
Permanent errors (a corrupt trace, a bad configuration, a translation
fault) fail the run immediately: re-running identical inputs would fail
identically.

Backoff delays are exponential with jitter, and the jitter is drawn from
:func:`repro.common.rng.make_rng` seeded by the experiment seed and the
run's identity — never from wall-clock entropy — so a resumed or
re-executed campaign schedules retries identically.  (The delays shape
*scheduling* only; simulation results never depend on them.)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import TransientError
from ..common.rng import make_rng


def is_transient(error: BaseException) -> bool:
    """True when ``error`` is worth retrying (see module docstring)."""
    return isinstance(error, TransientError)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a transient failure, and how fast.

    ``max_retries`` counts *additional* attempts after the first: a run
    is attempted at most ``max_retries + 1`` times.  The delay before
    retry ``attempt`` (1-based) is::

        min(base_delay_s * factor ** (attempt - 1), max_delay_s) * (1 + U)

    where ``U`` is uniform in ``[0, jitter)`` drawn deterministically
    from ``(seed, key, attempt)``.
    """

    max_retries: int = 2
    base_delay_s: float = 0.25
    factor: float = 2.0
    max_delay_s: float = 30.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_s(self, key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of run ``key``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(self.base_delay_s * self.factor ** (attempt - 1),
                   self.max_delay_s)
        rng = make_rng(self.seed, f"retry:{key}:{attempt}")
        return base * (1.0 + self.jitter * rng.random())
