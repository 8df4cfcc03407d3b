"""Unit tests for the event tracer and its null object."""

import pytest

from repro.obs import events
from repro.obs.sinks import ListSink
from repro.obs.tracer import NULL_TRACER, EventTracer, NullTracer


class TestNullTracer:
    def test_flags_are_false_class_attributes(self):
        assert NullTracer.enabled is False
        assert NullTracer.active is False
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.active is False

    def test_all_methods_are_noops(self):
        NULL_TRACER.begin(core=0)
        NULL_TRACER.emit("tlb_probe", cycles=1)
        NULL_TRACER.end(cycles=10)
        NULL_TRACER.marker("x")
        NULL_TRACER.close()
        assert NULL_TRACER.active is False


class TestSampling:
    def test_sample_one_traces_every_translation(self):
        sink = ListSink()
        tr = EventTracer([sink], sample=1)
        for i in range(5):
            tr.begin(core=0, vaddr=i)
            assert tr.active
            tr.end(cycles=1)
        assert tr.sampled == 5
        assert len([e for e in sink.events
                    if e["type"] == events.TRANSLATION]) == 5

    def test_sample_n_traces_first_of_every_n(self):
        tr = EventTracer(sample=3)
        picked = []
        for i in range(9):
            tr.begin(vaddr=i)
            picked.append(tr.active)
            tr.end(cycles=1)
        assert picked == [True, False, False] * 3
        assert tr.translations == 9
        assert tr.sampled == 3

    def test_unsampled_translation_emits_nothing(self):
        sink = ListSink()
        tr = EventTracer([sink], sample=2)
        tr.begin(vaddr=1)
        tr.end(cycles=1)
        n = len(sink.events)
        tr.begin(vaddr=2)       # unsampled -> active is False
        if tr.active:           # the gating contract every call site follows
            tr.emit(events.TLB_PROBE, cycles=1, level="l1", hit=True)
        tr.end(cycles=1)        # end() itself checks active
        assert len(sink.events) == n

    def test_invalid_sample_rejected(self):
        with pytest.raises(ValueError):
            EventTracer(sample=0)


class TestEventContents:
    def test_context_merged_into_every_event(self):
        sink = ListSink()
        tr = EventTracer([sink])
        tr.begin(core=3, vm=1, asid=7, vaddr=4096, scheme="pom")
        tr.emit(events.TLB_PROBE, cycles=1, level="l1", hit=False)
        tr.end(cycles=11, l2_miss=False, penalty=0)
        for event in sink.events:
            assert event["core"] == 3
            assert event["scheme"] == "pom"

    def test_clock_advances_and_resyncs_on_end(self):
        sink = ListSink()
        tr = EventTracer([sink])
        tr.begin(vaddr=0)
        tr.emit(events.TLB_PROBE, cycles=4, level="l1", hit=False)
        tr.emit(events.TLB_PROBE, cycles=9, level="l2", hit=False)
        tr.end(cycles=100, l2_miss=True, penalty=87)
        probe1, probe2, summary = sink.events
        assert probe1["ts"] == 0
        assert probe2["ts"] == 4
        assert summary["ts"] == 0          # stamped at begin, spans the steps
        assert summary["cycles"] == 100
        assert tr.now == 100               # resynced to begin + total

    def test_sequence_numbers_are_strictly_increasing(self):
        sink = ListSink()
        tr = EventTracer([sink], meta={"benchmark": "x", "scheme": "pom"})
        tr.begin(vaddr=0)
        tr.emit(events.TLB_PROBE, cycles=1, level="l1", hit=True)
        tr.end(cycles=1)
        seqs = [e["seq"] for e in sink.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_emitted_events_validate(self):
        sink = ListSink()
        tr = EventTracer([sink], meta={"benchmark": "x", "scheme": "pom"})
        tr.begin(core=0, vm=0, asid=1, vaddr=0, scheme="pom")
        tr.emit(events.TLB_PROBE, cycles=1, level="l1", hit=False)
        tr.marker("stats_reset")
        tr.end(cycles=5, l2_miss=False, penalty=0)
        for event in sink.events:
            events.validate_event(event)

    def test_validate_rejects_missing_field(self):
        with pytest.raises(ValueError):
            events.validate_event({"type": events.TLB_PROBE, "ts": 0,
                                   "seq": 0, "cycles": 1})   # no level/hit

    def test_validate_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            events.validate_event({"type": "bogus", "ts": 0, "seq": 0})


class TestMarkersAndRing:
    def test_marker_written_even_when_inactive(self):
        sink = ListSink()
        tr = EventTracer([sink], sample=2)
        tr.begin(vaddr=0)
        tr.end(cycles=1)
        tr.begin(vaddr=1)       # unsampled -> inactive
        tr.marker("stats_reset")
        tr.end(cycles=1)
        assert any(e["type"] == events.MARKER for e in sink.events)

    def test_run_meta_written_immediately(self):
        sink = ListSink()
        EventTracer([sink], sample=4, meta={"benchmark": "mcf",
                                            "scheme": "tsb"})
        assert sink.events[0]["type"] == events.RUN_META
        assert sink.events[0]["benchmark"] == "mcf"
        assert sink.events[0]["sample"] == 4
