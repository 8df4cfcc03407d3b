"""Observability: tracing, latency histograms, windowed metrics, profiling.

The hub is :class:`Observability`: one object a
:class:`~repro.core.system.Machine` owns that bundles

* a structured event **tracer** (:mod:`repro.obs.tracer`) — the null
  object by default, so the disabled hot path costs one attribute check;
* **log-bucketed latency histograms** (:mod:`repro.obs.histogram`) for
  translation cycles, penalty cycles and stacked-DRAM access time,
  attached to every :class:`~repro.core.system.SimulationResult`;
* **time-windowed metrics** (:mod:`repro.obs.windows`) showing warm-up
  vs steady-state behaviour per K references.

The host-side :class:`~repro.obs.profiler.SelfTimeProfiler` (where does
the *simulator* spend wall-clock?) lives alongside but is installed
explicitly, never by default.
"""

from __future__ import annotations

from typing import Dict, Optional

from .histogram import LogHistogram
from .sinks import ChromeTraceSink, JsonlSink, ListSink
from .telemetry import (NO_TELEMETRY, CampaignTelemetry, NullTelemetry,
                        StatusSnapshot)
from .tracer import NULL_TRACER, EventTracer, NullTracer
from .windows import WindowedMetrics

#: Histogram names every Machine collects when histograms are enabled.
HISTOGRAMS = ("translation_cycles", "penalty_cycles", "dram_access_cycles")


class Observability:
    """Per-machine observability configuration and state.

    ``tracer`` defaults to the null tracer (tracing off).  ``histograms``
    defaults to on: recording is one list append per reference, and
    it is what lets ``pomtlb details`` report latency percentiles
    without extra flags.
    ``window`` > 0 enables windowed metrics with that many references
    per window.
    """

    def __init__(self, tracer=None, histograms: bool = True,
                 window: int = 0) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.histograms: Optional[Dict[str, LogHistogram]] = (
            {name: LogHistogram(name) for name in HISTOGRAMS}
            if histograms else None)
        self.window = window
        self.windows: Optional[WindowedMetrics] = None

    @classmethod
    def disabled(cls) -> "Observability":
        """Everything off — the seed simulator's exact hot path."""
        return cls(histograms=False)

    # -- wiring --------------------------------------------------------------

    def attach(self, machine) -> None:
        """Point a machine's components at this hub (Machine.__init__)."""
        machine.scheme.trace = self.tracer
        machine.walkers.trace = self.tracer
        pom = getattr(machine.scheme, "pom", None)
        if pom is not None:
            pom.dram.trace = self.tracer
            if self.histograms is not None:
                pom.dram.histogram = self.histograms["dram_access_cycles"]
        for predictor in getattr(machine.scheme, "predictors", ()):
            predictor.trace = self.tracer
        if self.window:
            self.windows = WindowedMetrics(self.window, machine.stats)

    def fold(self) -> None:
        """Fold every histogram's pending values into its buckets."""
        if self.histograms is not None:
            for histogram in self.histograms.values():
                histogram.fold()

    def reset(self) -> None:
        """Zero collected data at the warmup boundary (stats reset)."""
        if self.histograms is not None:
            for histogram in self.histograms.values():
                histogram.reset()
        if self.windows is not None:
            self.windows.reset()


__all__ = [
    "CampaignTelemetry",
    "ChromeTraceSink",
    "EventTracer",
    "HISTOGRAMS",
    "JsonlSink",
    "ListSink",
    "LogHistogram",
    "NO_TELEMETRY",
    "NULL_TRACER",
    "NullTelemetry",
    "NullTracer",
    "Observability",
    "StatusSnapshot",
    "WindowedMetrics",
]
