"""Resilient campaign execution: isolation, retry, checkpoint, degradation.

The paper's evaluation is a large campaign of independent (benchmark,
scheme, params) simulations; this package is what lets it survive the
real world:

* :mod:`repro.resilience.retry` — transient/permanent error
  classification and exponential backoff with deterministic jitter;
* :mod:`repro.resilience.checkpoint` — an atomic, content-hash-keyed
  JSONL store of finished runs, enabling ``--checkpoint``/``--resume``;
* :mod:`repro.resilience.workers` — the executor: serial or
  process-pool (reused children, per-run timeout, crash containment),
  with the retry loop and checkpoint integration on top.

Fault injection to *prove* all of it lives in :mod:`repro.faults`.
"""

from __future__ import annotations

from .checkpoint import CheckpointStore, run_key
from .retry import RetryPolicy, is_transient
from .workers import RunFailure, RunOutcome, RunRequest, execute_runs

__all__ = [
    "CheckpointStore",
    "RetryPolicy",
    "RunFailure",
    "RunOutcome",
    "RunRequest",
    "execute_runs",
    "is_transient",
    "run_key",
]
