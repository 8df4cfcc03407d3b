"""Page-size and cache-bypass predictor (paper Sections 2.1.4 and 2.1.5).

One 512-entry table per core; each entry is 2 bits:

* bit 0 — predicted page size (0 = 4 KiB, 1 = 2 MiB), and
* bit 1 — predicted cache bypass (1 = skip the L2D$/L3D$ probes and go
  straight to the POM-TLB DRAM).

The table is indexed with 9 VA bits above the 4 KiB offset.  Both bits
are trained on outcome: a wrong size prediction flips bit 0 (the paper's
"the prediction entry for the index is updated"); the bypass bit is set
when the needed POM-TLB line turned out to be absent from the data
caches and cleared when it was present.

The structure costs 128 bytes of SRAM per core (512 x 2 bits), matching
the paper's overhead claim; the lookup is charged one cycle by the MMU.
"""

from __future__ import annotations

from ..common.config import PredictorConfig
from ..common.stats import StatGroup
from ..obs import events
from ..obs.tracer import NULL_TRACER


class SizeBypassPredictor:
    """Per-core combined page-size + bypass predictor."""

    def __init__(self, config: PredictorConfig, stats: StatGroup) -> None:
        self.config = config
        self.stats = stats
        #: Event tracer; the null object unless Observability attaches one.
        self.trace = NULL_TRACER
        self._mask = config.entries - 1
        self._shift = config.index_shift
        # Saturating counter per entry; >= threshold predicts 2 MiB.
        self._size_max = (1 << config.size_counter_bits) - 1
        self._size_threshold = 1 << (config.size_counter_bits - 1)
        self._size_counters = [0] * config.entries
        self._bypass_bits = [0] * config.entries
        # Counter slots resolved once; this path runs on every L2 TLB
        # miss of the POM schemes.
        self._size_correct = stats.counter("size_correct")
        self._size_wrong = stats.counter("size_wrong")
        self._bypass_correct = stats.counter("bypass_correct")
        self._bypass_wrong = stats.counter("bypass_wrong")

    def _index(self, vaddr: int) -> int:
        return (vaddr >> self._shift) & self._mask

    # -- page size ---------------------------------------------------------

    def predict_size(self, vaddr: int) -> bool:
        """Predict the page size of ``vaddr`` (True = 2 MiB)."""
        idx = (vaddr >> self._shift) & self._mask
        return self._size_counters[idx] >= self._size_threshold

    def record_size(self, vaddr: int, actual_large: bool) -> bool:
        """Train on the actual size; returns whether the prediction was right.

        With 1-bit counters this is the paper's update rule (flip the
        entry on a wrong prediction); multi-bit counters saturate toward
        the observed size, adding hysteresis (paper footnote 2).
        """
        idx = (vaddr >> self._shift) & self._mask
        counter = self._size_counters[idx]
        correct = (counter >= self._size_threshold) == actual_large
        slot = self._size_correct if correct else self._size_wrong
        slot.value += 1
        if self.trace.active:
            self.trace.emit(events.PREDICTOR_TRAIN, kind="size",
                            correct=correct)
        if actual_large:
            if counter < self._size_max:
                self._size_counters[idx] = counter + 1
        elif counter > 0:
            self._size_counters[idx] = counter - 1
        return correct

    # -- cache bypass ----------------------------------------------------------

    def predict_bypass(self, vaddr: int) -> bool:
        """Predict whether to skip the data-cache probes."""
        return bool(self._bypass_bits[(vaddr >> self._shift) & self._mask])

    def record_bypass(self, vaddr: int, line_was_cached: bool) -> bool:
        """Train on whether the POM-TLB line was actually in the caches.

        Bypassing is the right call exactly when the line was *not*
        cached; returns whether the prediction made was right.
        """
        idx = (vaddr >> self._shift) & self._mask
        predicted = bool(self._bypass_bits[idx])
        should_bypass = not line_was_cached
        correct = predicted == should_bypass
        slot = self._bypass_correct if correct else self._bypass_wrong
        slot.value += 1
        if self.trace.active:
            self.trace.emit(events.PREDICTOR_TRAIN, kind="bypass",
                            correct=correct)
        self._bypass_bits[idx] = int(should_bypass)
        return correct

    # -- reporting ----------------------------------------------------------

    def size_accuracy(self) -> float:
        total = self.stats["size_correct"] + self.stats["size_wrong"]
        return self.stats["size_correct"] / total if total else 0.0

    def bypass_accuracy(self) -> float:
        total = self.stats["bypass_correct"] + self.stats["bypass_wrong"]
        return self.stats["bypass_correct"] / total if total else 0.0
