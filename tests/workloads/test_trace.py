"""Unit tests for the trace format and interleaving."""

import pytest

from repro.common.errors import TraceFormatError
from repro.workloads.trace import (
    CoreStream,
    MemoryReference,
    interleave,
    load_stream,
    save_stream,
    validate_stream,
)


def make_stream(core=0, n=5, start=0):
    refs = [MemoryReference(start + i * 10, 0x1000 * i, i % 2 == 0)
            for i in range(n)]
    return CoreStream(core=core, vm_id=1, asid=2, references=refs)


class TestCoreStream:
    def test_len_and_iter(self):
        s = make_stream(n=5)
        assert len(s) == 5
        assert list(s) == list(s.references)

    def test_instructions(self):
        s = make_stream(n=3)
        assert s.instructions == s.references[-1].icount

    def test_instructions_empty(self):
        assert CoreStream(core=0, vm_id=0, asid=0).instructions == 0

    def test_records_become_columns(self):
        s = make_stream(n=4)
        assert list(s.icounts) == [0, 10, 20, 30]
        assert list(s.vaddrs) == [0, 0x1000, 0x2000, 0x3000]
        assert bytes(s.writes) == b"\x01\x00\x01\x00"
        assert not s.validated

    def test_references_view_is_read_only(self):
        s = make_stream(n=3)
        with pytest.raises(AttributeError):
            s.references = []
        with pytest.raises(TypeError):
            s.references[0] = MemoryReference(0, 0, False)

    @pytest.mark.parametrize("bad, message", [
        (MemoryReference(-5, 0x1000, False), "record 1: negative"),
        (MemoryReference(20, 1 << 64, False), "record 1: address out of "
                                              "range.*64-bit"),
        (MemoryReference(20, -1, True), "record 1: address out of range"),
    ])
    def test_unstorable_record_names_itself(self, bad, message):
        refs = [MemoryReference(10, 0x1000, False), bad]
        with pytest.raises(TraceFormatError, match=message) as excinfo:
            CoreStream(0, 0, 1, refs)
        assert excinfo.value.lineno == 2
        assert excinfo.value.text == repr(bad)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        s = make_stream(n=10)
        path = str(tmp_path / "trace.txt")
        save_stream(s, path)
        loaded = load_stream(path)
        assert loaded.core == s.core
        assert loaded.vm_id == s.vm_id
        assert loaded.asid == s.asid
        assert loaded.references == list(s.references)

    def test_gzip_roundtrip(self, tmp_path):
        s = make_stream(n=10)
        path = str(tmp_path / "trace.txt.gz")
        save_stream(s, path)
        assert load_stream(path).references == list(s.references)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("10 1000 R\n")
        with pytest.raises(TraceFormatError):
            load_stream(str(path))

    def test_bad_record_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#pomtlb-trace core=0 vm=0 asid=1\n10 zz R\n")
        with pytest.raises(TraceFormatError):
            load_stream(str(path))

    def test_bad_rw_flag_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#pomtlb-trace core=0 vm=0 asid=1\n10 1000 X\n")
        with pytest.raises(TraceFormatError):
            load_stream(str(path))

    def test_header_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#pomtlb-trace core=0 vm=0\n")
        with pytest.raises(TraceFormatError):
            load_stream(str(path))

    @pytest.mark.parametrize("header", [
        "core=-3 vm=0 asid=1", "core=0 vm=70000 asid=1",
        "core=0 vm=0 asid=70000", "core=0 vm=0 asid=-1"])
    def test_out_of_range_identity_rejected(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"#pomtlb-trace {header}\n10 1000 R\n")
        with pytest.raises(TraceFormatError,
                           match="negative|outside") as excinfo:
            load_stream(str(path))
        assert excinfo.value.lineno == 1

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("#pomtlb-trace core=0 vm=0 asid=1\n10 1000 R\n\n")
        assert len(load_stream(str(path)).references) == 1


class TestErrorContext:
    """Strict validation names the file, line and offending text."""

    def test_bad_record_names_line_and_text(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#pomtlb-trace core=0 vm=0 asid=1\n"
                        "10 1000 R\n10 zz R\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_stream(str(path))
        error = excinfo.value
        assert error.lineno == 3
        assert error.path == str(path)
        assert error.text == "10 zz R"
        assert f"{path}:3:" in str(error)
        assert "10 zz R" in str(error)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#pomtlb-trace core=0 vm=0 asid=1\n10 1000\n")
        with pytest.raises(TraceFormatError, match="truncated record"):
            load_stream(str(path))

    def test_negative_address_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#pomtlb-trace core=0 vm=0 asid=1\n10 -1f R\n")
        with pytest.raises(TraceFormatError, match="out of range"):
            load_stream(str(path))

    def test_oversized_address_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        too_wide = format(1 << 64, "x")
        path.write_text(f"#pomtlb-trace core=0 vm=0 asid=1\n10 {too_wide} R\n")
        with pytest.raises(TraceFormatError, match="64-bit"):
            load_stream(str(path))

    def test_negative_icount_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#pomtlb-trace core=0 vm=0 asid=1\n-10 1000 R\n")
        with pytest.raises(TraceFormatError, match="negative instruction"):
            load_stream(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty"):
            load_stream(str(path))

    def test_non_integer_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#pomtlb-trace core=zero vm=0 asid=1\n")
        with pytest.raises(TraceFormatError, match="header"):
            load_stream(str(path))

    def test_truncated_gzip_rejected(self, tmp_path):
        s = make_stream(n=50)
        path = str(tmp_path / "trace.txt.gz")
        save_stream(s, path)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:len(data) // 2])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_stream(path)


class TestValidate:
    def test_valid_stream_passes(self):
        validate_stream(make_stream())

    def test_backwards_icount_rejected(self):
        refs = [MemoryReference(10, 0, False), MemoryReference(5, 0, False)]
        with pytest.raises(TraceFormatError):
            validate_stream(CoreStream(0, 0, 0, refs))

    def test_equal_icount_allowed(self):
        refs = [MemoryReference(10, 0, False), MemoryReference(10, 0, False)]
        validate_stream(CoreStream(0, 0, 0, refs))

    def test_negative_address_rejected(self):
        refs = [MemoryReference(10, -1, False)]
        with pytest.raises(TraceFormatError, match="out of range"):
            validate_stream(CoreStream(0, 0, 0, refs))

    def test_oversized_address_rejected(self):
        refs = [MemoryReference(10, 1 << 64, False)]
        with pytest.raises(TraceFormatError, match="64-bit"):
            validate_stream(CoreStream(0, 0, 0, refs))

    def test_error_names_offending_record(self):
        refs = [MemoryReference(10, 0, False), MemoryReference(5, 0, False)]
        with pytest.raises(TraceFormatError, match="record 1"):
            validate_stream(CoreStream(0, 0, 0, refs))


class TestInterleave:
    def test_merges_by_icount(self):
        a = CoreStream(0, 0, 1, [MemoryReference(1, 0, False),
                                 MemoryReference(30, 0, False)])
        b = CoreStream(1, 0, 2, [MemoryReference(10, 0, False),
                                 MemoryReference(20, 0, False)])
        order = [(s.core, r.icount) for s, r in interleave([a, b])]
        assert order == [(0, 1), (1, 10), (1, 20), (0, 30)]

    def test_tie_breaks_by_core(self):
        a = CoreStream(1, 0, 1, [MemoryReference(5, 0, False)])
        b = CoreStream(0, 0, 2, [MemoryReference(5, 0, False)])
        order = [s.core for s, _ in interleave([a, b])]
        assert order == [0, 1]

    def test_empty_streams_ok(self):
        assert list(interleave([CoreStream(0, 0, 0)])) == []

    def test_all_references_delivered(self):
        streams = [make_stream(core=c, n=7, start=c) for c in range(3)]
        merged = list(interleave(streams))
        assert len(merged) == 21


class TestLoadStreamPacked:
    """``load_stream`` reads text straight into the stream's columns."""

    def test_roundtrip_matches_load_stream(self, tmp_path):
        s = make_stream(n=25)
        path = str(tmp_path / "trace.txt")
        save_stream(s, path)
        loaded = load_stream(path)
        assert (loaded.core, loaded.vm_id, loaded.asid) == (0, 1, 2)
        assert loaded == s
        assert not loaded.validated

    def test_gzip_roundtrip(self, tmp_path):
        s = make_stream(n=25)
        path = str(tmp_path / "trace.txt.gz")
        save_stream(s, path)
        assert load_stream(path) == s

    def test_empty_stream(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        save_stream(CoreStream(core=0, vm_id=0, asid=1), path)
        loaded = load_stream(path)
        assert len(loaded) == 0 and len(loaded.icounts) == 0

    def test_same_diagnostics_as_load_stream(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#pomtlb-trace core=0 vm=0 asid=1\n"
                        "10 1000 R\n10 zz R\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_stream(str(path))
        assert excinfo.value.lineno == 3
        assert excinfo.value.text == "10 zz R"


class TestLargeTraceMemory:
    """Streaming loaders must not hold a large trace as Python objects."""

    N = 20000

    def _trace_file(self, tmp_path, suffix=".gz"):
        import random

        rng = random.Random(7)
        path = str(tmp_path / f"big.trace{suffix}")
        refs = []
        icount = 0
        for _ in range(self.N):
            icount += rng.randrange(1, 30)
            refs.append(MemoryReference(icount, rng.getrandbits(48),
                                        rng.random() < 0.3))
        save_stream(CoreStream(core=0, vm_id=0, asid=1, references=refs),
                    path)
        return path

    def _peak(self, loader, path):
        import gc
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        stream = loader(path)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(stream.references) == self.N
        return peak

    def test_packed_loader_peak_is_columnar(self, tmp_path):
        path = self._trace_file(tmp_path)
        peak = self._peak(load_stream, path)
        # ~17 B/record in columns vs ~120 B/record of namedtuples; allow
        # generous slack for array growth and line buffers while still
        # catching any whole-file or whole-list buffering regression.
        assert peak < self.N * 60, peak

    def test_gzip_text_loader_streams(self, tmp_path):
        # Line-by-line gzip decode: peak stays near the reference-list
        # cost; a loader that buffered the whole decompressed file first
        # would sit well above it.
        path_gz = self._trace_file(tmp_path, suffix=".gz")
        path_txt = self._trace_file(tmp_path, suffix="")
        gz_peak = self._peak(load_stream, path_gz)
        txt_peak = self._peak(load_stream, path_txt)
        assert gz_peak < txt_peak * 1.5 + 256 * 1024, (gz_peak, txt_peak)


class TestInterleavePacked:
    """Decoded and copied streams interleave like record-built ones."""

    def _flatten(self, streams):
        from repro.workloads.trace import merge_order

        merged = merge_order(streams)
        out = []
        for position in range(len(merged.order)):
            stream, index = merged.at(position)
            out.append((stream.core, stream.references[index]))
        return out

    def test_chunks_match_corestream(self):
        from repro.workloads.packed import decode_container, encode_streams

        streams = [make_stream(core=c, n=13, start=c * 3) for c in range(3)]
        decoded = decode_container(encode_streams(streams)).streams
        assert self._flatten(decoded) == self._flatten(streams)

    def test_matches_reference_interleave(self):
        from repro.workloads.packed import pack_stream

        streams = [make_stream(core=c, n=9, start=c * 2) for c in range(3)]
        packed = [pack_stream(s) for s in streams]
        reference = [(s.core, r) for s, r in interleave(streams)]
        assert self._flatten(packed) == reference
