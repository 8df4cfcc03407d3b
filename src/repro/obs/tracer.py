"""Structured event tracer with a zero-overhead disabled path.

Two implementations share one protocol:

* :data:`NULL_TRACER` — the null object every component holds by
  default.  Its ``enabled``/``active`` attributes are ``False`` class
  attributes, so the instrumentation sites compiled into the hot path
  cost exactly one attribute check and never call a method.
* :class:`EventTracer` — the real thing: samples ``1/N`` translations,
  stamps every event with a virtual cycle clock and a sequence number,
  and fans each event out to any number of sinks (JSONL, Chrome trace,
  in-memory).

Gating contract (enforced by convention at every instrumentation site):

* ``if tracer.enabled: tracer.begin(...)`` — once per translation;
  ``begin`` decides whether this translation is sampled.
* ``if tracer.active: tracer.emit(...)/tracer.end(...)`` — per step;
  ``active`` is True only inside a sampled translation.
"""

from __future__ import annotations

from typing import Optional

from . import events


class NullTracer:
    """Do-nothing tracer; ``enabled``/``active`` are always False.

    The methods exist so code that did not gate a call still works, but
    the instrumentation sites must gate — that is what keeps the
    disabled hot path at a single attribute check.
    """

    enabled = False
    active = False

    def begin(self, **context) -> None:
        pass

    def emit(self, etype: str, cycles: int = 0, **fields) -> None:
        pass

    def end(self, cycles: int = 0, **fields) -> None:
        pass

    def marker(self, name: str, **fields) -> None:
        pass

    def close(self) -> None:
        pass


#: The shared null object; components default their ``trace`` attribute to it.
NULL_TRACER = NullTracer()


class EventTracer:
    """Emits one typed event per translation step to its sinks.

    ``sample=N`` records every N-th translation (the first of every N).
    ``meta`` is written immediately as a ``run_meta`` event so multi-run
    sinks (e.g. one JSONL file for a whole figure) can split runs.
    """

    enabled = True

    def __init__(self, sinks=(), sample: int = 1,
                 meta: Optional[dict] = None) -> None:
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self.sinks = list(sinks)
        self.sample = sample
        self.active = False
        self.seq = 0            # events written
        self.translations = 0   # translations seen (sampled or not)
        self.sampled = 0        # translations actually traced
        self.now = 0            # virtual clock, cycles
        self._context: dict = {}
        self._begin_ts = 0
        if meta is not None:
            self._write({"type": events.RUN_META, "ts": 0,
                         "seq": self._next_seq(), "sample": sample, **meta})

    def _next_seq(self) -> int:
        seq = self.seq
        self.seq = seq + 1
        return seq

    # -- translation lifecycle ----------------------------------------------

    def begin(self, **context) -> None:
        """Mark a translation boundary; decides whether it is sampled.

        ``context`` (core, vm, asid, vaddr, scheme) is merged into every
        event emitted until :meth:`end`.
        """
        n = self.translations
        self.translations = n + 1
        if n % self.sample:
            self.active = False
            return
        self.active = True
        self.sampled += 1
        self._context = context
        self._begin_ts = self.now

    def emit(self, etype: str, cycles: int = 0, **fields) -> None:
        """Write one step event; advances the virtual clock by ``cycles``."""
        event = {"type": etype, "ts": self.now, "seq": self._next_seq(),
                 "cycles": cycles}
        event.update(self._context)
        event.update(fields)
        self.now += cycles
        self._write(event)

    def end(self, cycles: int = 0, **fields) -> None:
        """Write the per-translation summary event and close the sample.

        ``cycles`` is the full translation latency; the summary event is
        stamped at the translation's begin time so it spans its steps in
        the Chrome trace view.
        """
        if not self.active:
            return
        event = {"type": events.TRANSLATION, "ts": self._begin_ts,
                 "seq": self._next_seq(), "cycles": cycles}
        event.update(self._context)
        event.update(fields)
        self.now = self._begin_ts + cycles
        self._write(event)
        self.active = False
        self._context = {}

    def marker(self, name: str, **fields) -> None:
        """Out-of-band marker (e.g. the warmup ``stats_reset`` boundary).

        Markers are never sampled away: replay needs every one of them.
        """
        self._write({"type": events.MARKER, "ts": self.now,
                     "seq": self._next_seq(), "name": name, **fields})

    # -- plumbing ------------------------------------------------------------

    def _write(self, event: dict) -> None:
        for sink in self.sinks:
            sink.write(event)

    def close(self) -> None:
        """Flush and close every sink."""
        for sink in self.sinks:
            sink.close()
