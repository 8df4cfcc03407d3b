"""Columnar CoreStream through the packed codec: nothing is lost or reordered.

Streams of any length — empty, equal icounts, all-write or all-read —
built from records must survive ``encode_streams`` → ``decode_container``
column for column, replay in the same order as the record-built
originals, and ``corrupt_streams`` must always leave something that
validation rejects.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import TraceFormatError
from repro.faults import corrupt_streams
from repro.workloads.packed import decode_container, encode_streams
from repro.workloads.trace import (CoreStream, MemoryReference, interleave,
                                   merge_order, validate_stream)

#: Icounts stay far below 2**64 - 1 so ``corrupt_streams`` (last + 1)
#: always fits the u64 column.
_ICOUNT_LIMIT = 1 << 62


@st.composite
def records(draw):
    """A non-decreasing record list; writes all, none or mixed."""
    write_mode = draw(st.sampled_from(("read", "write", "mixed")))
    icount = draw(st.integers(0, _ICOUNT_LIMIT))
    out = []
    for _ in range(draw(st.integers(0, 40))):
        icount = min(_ICOUNT_LIMIT,
                     icount + draw(st.sampled_from((0, 0, 1, 7))))
        vaddr = draw(st.one_of(st.integers(0, (1 << 64) - 1),
                               st.integers(0, 1 << 20)))
        write = (write_mode == "write" if write_mode != "mixed"
                 else draw(st.booleans()))
        out.append(MemoryReference(icount, vaddr, write))
    return out


@st.composite
def stream_sets(draw):
    return [CoreStream(core=draw(st.integers(0, 3)),
                       vm_id=draw(st.integers(0, 3)), asid=arrival,
                       references=draw(records()))
            for arrival in range(draw(st.integers(1, 4)))]


def by_arrival(pairs, streams):
    """(stream, reference) pairs with each stream named by its index."""
    arrival = {id(stream): k for k, stream in enumerate(streams)}
    return [(arrival[id(stream)], ref) for stream, ref in pairs]


def decoded(streams, validated=False):
    return decode_container(encode_streams(streams,
                                           validated=validated)).streams


class TestCodecRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(stream_sets(), st.booleans())
    def test_columns_and_references_survive(self, streams, validated):
        out = decoded(streams, validated)
        assert len(out) == len(streams)
        for got, want in zip(out, streams):
            assert (got.core, got.vm_id, got.asid) == \
                (want.core, want.vm_id, want.asid)
            assert got.icounts == want.icounts
            assert got.vaddrs == want.vaddrs
            assert got.writes == want.writes
            assert got.references == want.references
            assert got.validated == validated

    @settings(max_examples=150, deadline=None)
    @given(stream_sets())
    def test_merge_order_on_decoded_matches_interleave(self, streams):
        out = decoded(streams)
        merged = merge_order(out)
        got = []
        for position in range(len(merged.order)):
            stream, index = merged.at(position)
            got.append((stream, stream.references[index]))
        assert by_arrival(got, out) == by_arrival(interleave(streams),
                                                  streams)


class TestCorruption:
    @settings(max_examples=200, deadline=None)
    @given(stream_sets(), st.booleans())
    def test_corrupt_streams_always_fails_validation(self, streams,
                                                     validated):
        for stream in streams:
            stream.validated = validated
        corrupt_streams(streams)
        if not any(len(stream) >= 2 for stream in streams):
            return  # nothing to corrupt
        target = next(s for s in streams if len(s) >= 2)
        assert not target.validated
        with pytest.raises(TraceFormatError, match="goes backwards"):
            for stream in streams:
                validate_stream(stream)
