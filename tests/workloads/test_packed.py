"""Unit tests for the packed binary columnar trace format."""

import gzip
import struct

import pytest

from repro.common.errors import PackedTraceError
from repro.workloads.packed import (
    BYTES_PER_RECORD,
    FORMAT_VERSION,
    MAGIC,
    decode_container,
    encode_streams,
    encode_workload,
    load_packed,
    pack_stream,
    save_packed,
)
from repro.workloads.suite import get_profile
from repro.workloads.trace import CoreStream, MemoryReference, validate_stream


def make_stream(core=0, n=5, start=0):
    refs = [MemoryReference(start + i * 10, 0x1000 * i, i % 2 == 0)
            for i in range(n)]
    return CoreStream(core=core, vm_id=1, asid=2, references=refs)


# Containers written by the encoder that predates columnar CoreStream;
# the format must not drift.
PINNED_EMPTY = bytes.fromhex(
    "504f4d544c425701010000000100000068e4afc8000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000100"
    "000000000000000000000000000000000000")
PINNED_NINE = bytes.fromhex(
    "504f4d544c42570101000000010000003aaf1aee000000000000000000000000"
    "0000000009000000000000000000000000000000000000000000010000000200"
    "00000900000000000000000000000000000005000000000000000f0000000000"
    "0000190000000000000023000000000000002d00000000000000370000000000"
    "000041000000000000004b000000000000005500000000000000000000000000"
    "0000001000000000000000200000000000000030000000000000004000000000"
    "0000005000000000000000600000000000000070000000000000008000000000"
    "00004900")
PINNED_WORKLOAD = bytes.fromhex(
    "504f4d544c4257010100010003000000ca71ad0d070000000000000000000000"
    "0000e03f09000000000000000400000000000000040067757073000000000100"
    "0000020000000200000000000000010000000000000001000000030000000400"
    "0000030000000000000000000000000000000200000001000000020000000400"
    "000000000000030000000000000000000000000000000a000000000000000000"
    "00000000000000100000000000000100000000000000000a0000000000000014"
    "0000000000000040000000000000004010000000000000402000000000000001"
    "64000000000000006e0000000000000078000000000000008200000000000000"
    "8000000000000000801000000000000080200000000000008030000000000000"
    "09")


def pinned_stream(core, n, start=0, vm_id=1, asid=2):
    refs = [MemoryReference(start + i * 10, 0x1000 * i + core * 0x40,
                            i % 3 == 0) for i in range(n)]
    return CoreStream(core, vm_id, asid, refs)


PINNED = {
    "empty": (PINNED_EMPTY, [CoreStream(0, 0, 1)], {}),
    # 9 records: the write bitmap ends in a partial byte.
    "nine": (PINNED_NINE, [pinned_stream(0, 9, start=5)], {}),
    "workload": (PINNED_WORKLOAD,
                 [pinned_stream(0, 2), pinned_stream(1, 3, vm_id=3, asid=4),
                  pinned_stream(2, 4, start=100)],
                 dict(benchmark="gups", seed=7, scale=0.5,
                      warmup_by_core={0: 1, 2: 3}, validated=True)),
}


@pytest.mark.parametrize("case", sorted(PINNED))
class TestPinnedFormat:
    def test_decodes_to_the_same_records(self, case):
        blob, streams, meta = PINNED[case]
        container = decode_container(blob)
        assert container.streams == streams
        for decoded, orig in zip(container.streams, streams):
            assert list(decoded.references) == list(orig.references)
            assert decoded.validated == meta.get("validated", False)
        assert container.validated == meta.get("validated", False)
        assert container.warmup_by_core == meta.get("warmup_by_core", {})
        assert container.benchmark == meta.get("benchmark", "")

    def test_reencodes_to_the_same_bytes(self, case):
        blob, streams, meta = PINNED[case]
        container = decode_container(blob)
        assert encode_streams(container.streams, **meta) == blob
        assert encode_streams(streams, **meta) == blob


class TestPackUnpack:
    def test_roundtrip_exact(self):
        stream = make_stream(n=17)
        packed = pack_stream(stream)
        assert list(packed.references) == list(stream.references)
        assert packed == stream
        assert packed.icounts is not stream.icounts

    def test_metadata_preserved(self):
        packed = pack_stream(make_stream(core=3))
        assert (packed.core, packed.vm_id, packed.asid) == (3, 1, 2)

    def test_len_iter_instructions_match_corestream(self):
        stream = make_stream(n=9)
        packed = pack_stream(stream)
        assert len(packed) == len(stream)
        assert list(packed) == list(stream)
        assert packed.instructions == stream.instructions

    def test_empty_stream(self):
        packed = pack_stream(CoreStream(core=0, vm_id=0, asid=1))
        assert len(packed) == 0
        assert packed.instructions == 0
        assert list(packed.references) == []

    def test_64bit_addresses_survive(self):
        refs = [MemoryReference(1, (1 << 64) - 1, True),
                MemoryReference(2, 0, False)]
        packed = pack_stream(CoreStream(0, 0, 1, refs))
        assert list(packed.references) == refs

    def test_refview_slice_and_negative_index(self):
        stream = make_stream(n=8)
        packed = pack_stream(stream)
        assert packed.references[2:5] == list(stream.references)[2:5]
        assert packed.references[-1] == stream.references[-1]
        with pytest.raises(IndexError):
            packed.references[8]


class TestContainer:
    def test_streams_roundtrip(self):
        streams = [make_stream(core=c, n=5 + c) for c in range(3)]
        blob = encode_streams(streams, benchmark="gups", seed=7, scale=0.5,
                              warmup_by_core={0: 2, 2: 3}, validated=True)
        container = decode_container(blob)
        assert container.benchmark == "gups"
        assert container.seed == 7 and container.scale == 0.5
        assert container.validated
        assert container.warmup_by_core == {0: 2, 2: 3}
        assert container.warmup_total == 5
        for orig, packed in zip(streams, container.streams):
            assert packed.validated
            assert list(packed.references) == list(orig.references)

    def test_empty_stream_in_container(self):
        blob = encode_streams([CoreStream(0, 0, 1)])
        container = decode_container(blob)
        assert len(container.streams) == 1
        assert len(container.streams[0]) == 0

    def test_container_size_is_columnar(self):
        n = 1000
        blob = encode_streams([make_stream(n=n)])
        assert len(blob) < n * BYTES_PER_RECORD + 200

    def test_workload_roundtrip(self):
        profile = get_profile("gups")
        workload = profile.build(num_cores=2, refs_per_core=100, seed=1,
                                 scale=0.05)
        container = decode_container(encode_workload(workload))
        rebuilt = container.workload()
        assert rebuilt.profile.name == "gups"
        assert rebuilt.warmup_by_core == workload.warmup_by_core
        assert rebuilt.seed == workload.seed
        assert rebuilt.scale == workload.scale
        for orig, packed in zip(workload.streams, rebuilt.streams):
            assert list(packed.references) == list(orig.references)

    def test_each_decode_owns_its_streams(self):
        from repro.faults import corrupt_streams

        profile = get_profile("gups")
        workload = profile.build(num_cores=1, refs_per_core=50, seed=1,
                                 scale=0.05)
        blob = encode_workload(workload, validated=True)
        first = decode_container(blob).workload()
        corrupt_streams(first.streams)  # one run's damage
        assert not first.streams[0].validated
        second = decode_container(blob).workload()
        assert second.streams[0] == workload.streams[0]
        assert second.streams[0].validated


class TestCorruptionDetection:
    def blob(self, validated=False):
        return encode_streams([make_stream(n=20)], benchmark="gups",
                              validated=validated)

    def test_every_byte_position_detected(self):
        blob = self.blob()
        # Exhaustive over the whole container: header, name, table and
        # payload damage must all fail loudly, never decode quietly.
        for position in range(len(blob)):
            damaged = bytearray(blob)
            damaged[position] ^= 0xFF
            if bytes(damaged) == blob:  # pragma: no cover
                continue
            with pytest.raises(PackedTraceError):
                decode_container(bytes(damaged))

    def test_flipped_validated_flag_detected(self):
        # Satellite 3's threat model: corruption must not grant the
        # validation waiver.
        blob = bytearray(self.blob(validated=False))
        flags_offset = struct.calcsize("<8sHH") - 2
        blob[flags_offset] |= 1
        with pytest.raises(PackedTraceError, match="checksum"):
            decode_container(bytes(blob))

    def test_truncation_detected(self):
        blob = self.blob()
        for cut in (0, 4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(PackedTraceError):
                decode_container(blob[:cut])

    def test_bad_magic_message(self):
        with pytest.raises(PackedTraceError, match="magic"):
            decode_container(b"NOTATRACE" + self.blob()[9:])

    def test_version_skew_rejected(self):
        blob = bytearray(self.blob())
        blob[len(MAGIC):len(MAGIC) + 2] = struct.pack(
            "<H", FORMAT_VERSION + 1)
        with pytest.raises(PackedTraceError, match="version"):
            decode_container(bytes(blob))

    def test_error_names_path(self):
        with pytest.raises(PackedTraceError, match="wl.pwl"):
            decode_container(b"short", path="wl.pwl")

    @pytest.mark.parametrize("core, vm_id, asid, field", [
        (-1, 0, 1, "core -1"), (0, 70000, 1, "vm 70000"),
        (0, 0, 70000, "asid 70000"), (0, -1, 1, "vm -1")])
    def test_out_of_range_identity_rejected(self, core, vm_id, asid, field):
        # A well-formed container (valid CRC) naming a stream no
        # machine can run: refused at decode, not mid-simulation.
        stream = make_stream(n=3)
        stream.core, stream.vm_id, stream.asid = core, vm_id, asid
        with pytest.raises(PackedTraceError, match=f"stream 0: .*{field}"):
            decode_container(encode_streams([stream]))


class TestFiles:
    def test_plain_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "wl.pwl")
        streams = [make_stream(core=c, n=10) for c in range(2)]
        save_packed(path, streams, benchmark="gcc", validated=True)
        container = load_packed(path)
        assert container.benchmark == "gcc" and container.validated
        for orig, packed in zip(streams, container.streams):
            assert list(packed.references) == list(orig.references)

    def test_gzip_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "wl.pwl.gz")
        save_packed(path, [make_stream(n=10)])
        with open(path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"  # actually gzipped
        container = load_packed(path)
        assert list(container.streams[0].references) == \
            list(make_stream(n=10).references)

    def test_gzip_deterministic_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.pwl.gz"), str(tmp_path / "b.pwl.gz")
        save_packed(a, [make_stream(n=10)])
        save_packed(b, [make_stream(n=10)])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.pwl"
        path.write_bytes(b"")
        with pytest.raises(PackedTraceError, match="empty|truncated"):
            load_packed(str(path))

    def test_torn_gzip_rejected(self, tmp_path):
        path = str(tmp_path / "wl.pwl.gz")
        save_packed(path, [make_stream(n=500)])
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:len(data) // 2])
        with pytest.raises(PackedTraceError, match="gzip|checksum"):
            load_packed(path)


class TestValidatedFlagInteraction:
    def test_validate_stream_columnar_fast_path(self):
        packed = pack_stream(make_stream(n=10))
        validate_stream(packed)  # monotone icounts pass

    def test_validate_stream_columnar_rejects_backwards(self):
        refs = [MemoryReference(10, 0, False), MemoryReference(5, 0, False)]
        packed = pack_stream(CoreStream(0, 0, 1, refs))
        with pytest.raises(Exception, match="record 1"):
            validate_stream(packed)

    def test_depacked_corruption_caught(self):
        from repro.faults import corrupt_streams

        packed = pack_stream(make_stream(n=10), validated=True)
        corrupt_streams([packed])
        assert not packed.validated
        with pytest.raises(Exception, match="record 5: .* goes backwards"):
            validate_stream(packed)
