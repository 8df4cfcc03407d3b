"""Unit tests for time-windowed metrics."""

import json

import pytest

from repro.common.stats import StatRegistry
from repro.obs.windows import WindowedMetrics


def _registry():
    reg = StatRegistry()
    reg.group("pom_tlb")
    reg.group("core0.predictor")
    return reg


class TestWindowing:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            WindowedMetrics(0)

    def test_rows_close_every_k_references(self):
        w = WindowedMetrics(10)
        for _ in range(35):
            w.record(cycles=2, l2_miss=False, penalty=0)
        assert len(w.rows) == 3
        w.finish()
        assert len(w.rows) == 4
        assert w.rows[-1]["partial"] is True
        assert w.rows[-1]["references"] == 5
        assert all("partial" not in row for row in w.rows[:3])

    def test_finish_without_pending_adds_nothing(self):
        w = WindowedMetrics(5)
        for _ in range(5):
            w.record(1, False, 0)
        w.finish()
        assert len(w.rows) == 1

    def test_per_window_averages(self):
        w = WindowedMetrics(4)
        for cycles, miss, penalty in ((1, False, 0), (1, False, 0),
                                      (101, True, 100), (1, False, 0)):
            w.record(cycles, miss, penalty)
        row = w.rows[0]
        assert row["avg_translation_cycles"] == pytest.approx(26.0)
        assert row["l2_miss_ratio"] == pytest.approx(0.25)
        assert row["avg_penalty_per_miss"] == pytest.approx(100.0)

    def test_structure_counters_are_deltas_per_window(self):
        reg = _registry()
        w = WindowedMetrics(2, stats=reg)
        reg["pom_tlb"].inc("hits_small", 3)
        reg["pom_tlb"].inc("misses_small", 1)
        w.record(1, False, 0)
        w.record(1, False, 0)      # closes window 0
        reg["pom_tlb"].inc("misses_small", 3)
        w.record(1, False, 0)
        w.record(1, False, 0)      # closes window 1
        assert w.rows[0]["pom_hit_ratio"] == pytest.approx(0.75)
        assert w.rows[1]["pom_hit_ratio"] == pytest.approx(0.0)

    def test_predictor_accuracy_from_registry(self):
        reg = _registry()
        w = WindowedMetrics(1, stats=reg)
        reg["core0.predictor"].inc("bypass_correct", 9)
        reg["core0.predictor"].inc("bypass_wrong", 1)
        w.record(1, False, 0)
        assert w.rows[0]["bypass_accuracy"] == pytest.approx(0.9)

    def test_reset_drops_rows_and_rebaselines(self):
        reg = _registry()
        w = WindowedMetrics(1, stats=reg)
        reg["pom_tlb"].inc("hits_small", 5)
        w.record(1, False, 0)
        assert len(w.rows) == 1
        w.reset()
        assert w.rows == []
        # post-reset window must not see pre-reset counter history
        reg["pom_tlb"].inc("misses_small", 5)
        w.record(1, False, 0)
        assert w.rows[0]["pom_hit_ratio"] == pytest.approx(0.0)

    def test_as_dict_and_json(self):
        w = WindowedMetrics(2)
        w.record(1, False, 0)
        w.finish()
        d = json.loads(w.to_json())
        assert d["window"] == 2
        assert len(d["rows"]) == 1
