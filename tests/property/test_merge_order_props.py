"""merge_order (one stable sort) replays exactly interleave's heap merge."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import SystemConfig
from repro.common.errors import TraceFormatError
from repro.core.system import Machine
from repro.workloads.lifecycle import (_merge_boundaries, build_churn,
                                       build_migration)
from repro.workloads.packed import pack_stream
from repro.workloads.trace import (CoreStream, MemoryReference, interleave,
                                   merge_order)


def flatten(streams):
    """merge_order as interleave's (stream, reference) sequence."""
    merged = merge_order(streams)
    out = []
    for position in range(len(merged.order)):
        stream, index = merged.at(position)
        out.append((stream, stream.references[index]))
    return out


def spec(streams):
    return list(interleave(streams))


def same(got, want):
    """Identity of the stream, equality of the record, position by position."""
    return (len(got) == len(want)
            and all(gs is ws and gr == wr
                    for (gs, gr), (ws, wr) in zip(got, want)))


@st.composite
def stream_sets(draw):
    """Streams with heavy icount ties, across cores and within a stream.

    Cores are drawn from a small range so two streams often share one;
    icount steps of 0 make equal icounts inside a stream; empty streams
    and pack_stream copies (validated or not) are mixed in.
    """
    streams = []
    for arrival in range(draw(st.integers(0, 5))):
        icount = draw(st.integers(0, 3))
        refs = []
        for n in range(draw(st.integers(0, 12))):
            icount += draw(st.integers(0, 2))
            refs.append(MemoryReference(icount, (arrival << 20) | (n << 12),
                                        draw(st.booleans())))
        stream = CoreStream(core=draw(st.integers(0, 2)), vm_id=1,
                            asid=arrival, references=refs)
        if draw(st.booleans()):
            stream = pack_stream(stream, validated=draw(st.booleans()))
        streams.append(stream)
    return streams


class TestMergeOrderMatchesInterleave:
    @settings(max_examples=200, deadline=None)
    @given(stream_sets())
    def test_same_sequence_as_heap_merge(self, streams):
        assert same(flatten(streams), spec(streams))

    @settings(max_examples=100, deadline=None)
    @given(stream_sets())
    def test_columns_match_the_records(self, streams):
        merged = merge_order(streams)
        for position in range(len(merged.order)):
            stream, index = merged.at(position)
            ref = stream.references[index]
            j = merged.order[position]
            assert (merged.icounts[j], merged.vaddrs[j],
                    bool(merged.writes[j])) == tuple(ref)

    def test_two_streams_on_one_core_tie_by_arrival(self):
        late = CoreStream(1, 0, 1, [MemoryReference(5, 0x1000, False)])
        early = CoreStream(1, 0, 2, [MemoryReference(5, 0x2000, False)])
        other = CoreStream(0, 0, 3, [MemoryReference(5, 0x3000, False)])
        got = flatten([late, early, other])
        assert [s for s, _ in got] == [other, late, early]
        assert same(got, spec([late, early, other]))

    def test_equal_icounts_within_a_stream_keep_record_order(self):
        refs = [MemoryReference(7, 0x1000 * i, False) for i in range(4)]
        stream = CoreStream(0, 0, 1, refs)
        assert [r for _, r in flatten([stream])] == refs

    def test_empty_input(self):
        assert flatten([]) == []
        assert flatten([CoreStream(0, 0, 0), CoreStream(1, 0, 0)]) == []


class TestNonMonotonicIcounts:
    """A sort and a heap merge disagree on such a stream: fail loudly."""

    REFS = [MemoryReference(10, 0x1000, False),
            MemoryReference(5, 0x2000, False)]

    def test_merge_order_raises_validate_streams_error(self):
        with pytest.raises(TraceFormatError, match="record 1: icount 5 goes "
                                                   "backwards"):
            merge_order([CoreStream(0, 0, 1, list(self.REFS))])

    @pytest.mark.parametrize("packed", [False, True])
    def test_machine_run_raises(self, packed):
        stream = CoreStream(0, 0, 1, list(self.REFS))
        if packed:
            stream = pack_stream(stream)
        machine = Machine(SystemConfig(num_cores=1), scheme="pom")
        with pytest.raises(TraceFormatError, match="goes backwards"):
            machine.run([stream])


class TestEventPositionsUnmoved:
    """Lifecycle event positions equal a walk of the heap merge."""

    @staticmethod
    def spec_boundaries(streams):
        first_after, last_after = {}, {}
        for position, (stream, _ref) in enumerate(interleave(streams), 1):
            first_after.setdefault(id(stream), position)
            last_after[id(stream)] = position
        return first_after, last_after

    def test_churn(self):
        wl = build_churn(["gups", "mcf"], generations=3, refs_per_core=120,
                         seed=5, scale=0.05)
        assert (_merge_boundaries(wl.streams)
                == self.spec_boundaries(wl.streams))
        _first, last_after = self.spec_boundaries(wl.streams)
        assert sorted(e.position for e in wl.events) == sorted(
            last_after.values())

    def test_migration(self):
        wl = build_migration(["gups", "mcf"], refs_per_core=200, seed=3,
                             scale=0.05, bursts=3)
        assert (_merge_boundaries(wl.streams)
                == self.spec_boundaries(wl.streams))
