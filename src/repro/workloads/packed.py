"""Packed binary trace format: a workload's streams in one container.

The text ``#pomtlb-trace`` format (:mod:`repro.workloads.trace`) is
greppable but must be re-parsed on every load.  This module stores the
same records as three per-stream columns — ``icount`` and ``vaddr`` as
little-endian 64-bit arrays plus a write bitmap at one bit per record
(17 bytes/record total) — inside a single fixed-header container that
is attached as bytes to a campaign run request (the parent compiles
each distinct workload once) or written atomically to a ``.pwl`` file
(``pomtlb trace pack``, audit repro artifacts).

Decoding copies each column into a fresh
:class:`~repro.workloads.trace.CoreStream` (``array('Q')`` columns,
byteswapped on big-endian hosts; the bitmap unpacked to one byte per
record), so every decode owns its streams.  Round-tripping is exact:
encoding then decoding reproduces the original records bit for bit,
which is what lets the campaign prove byte-identical reports whether a
run replays a generated or a packed workload
(tests/integration/test_workload_equivalence.py).

Container layout (all integers little-endian)::

    header   "<8sHHIIqdQQH"  magic, version, flags, nstreams, crc32,
                             seed, scale, total_refs, total_warmup,
                             benchmark-name length
    name     UTF-8 benchmark name (may be empty for bare trace files)
    table    nstreams x "<iiiQQ"  core, vm, asid, count, warmup
    payload  per stream: icounts (count x u64), vaddrs (count x u64),
             write bitmap ((count+7)//8 bytes, LSB-first)

``flags`` bit 0 records that every stream passed
:func:`~repro.workloads.trace.validate_stream` before encoding; loaders
verify the CRC-32 (computed over the whole container with the CRC field
zeroed, so header damage is caught too) and propagate the flag so
replays skip re-validation.  A ``.gz`` suffix gzips the whole
container.
"""

from __future__ import annotations

import gzip
import struct
import sys
import zlib
from array import array
from typing import Dict, List, Optional, Sequence

from ..common.errors import PackedTraceError
from ..common.fileio import atomic_write_bytes
from .trace import CoreStream, identity_error

#: Bumped when the container layout changes; loaders reject other
#: versions.
FORMAT_VERSION = 1

MAGIC = b"POMTLBW\x01"

#: Header flag bit: every stream was validated before encoding.
FLAG_VALIDATED = 1

_HEADER = struct.Struct("<8sHHIIqdQQH")
_STREAM = struct.Struct("<iiiQQ")

#: Byte span of the CRC field inside the header.  The checksum covers
#: the *entire* container with this field zeroed, so header damage
#: (a flipped validated flag, a resized stream table) is caught, not
#: just payload bit-rot.
_CRC_OFFSET = struct.calcsize("<8sHHI")
_CRC_END = _CRC_OFFSET + 4


def _container_crc(header: bytes, body) -> int:
    """CRC-32 of ``header`` (CRC field zeroed) followed by ``body``."""
    crc = zlib.crc32(header[:_CRC_OFFSET])
    crc = zlib.crc32(b"\x00\x00\x00\x00", crc)
    crc = zlib.crc32(header[_CRC_END:], crc)
    return zlib.crc32(body, crc)

#: Byte cost per record: two u64 columns plus one bitmap bit.
BYTES_PER_RECORD = 17

_LITTLE_ENDIAN = sys.byteorder == "little"

# The write bitmap is converted through a binary-digit string: record i
# is bit i of one little-endian integer.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bitmap(writes) -> bytes:
    """One bit per record (LSB-first) from one 0/1 byte per record."""
    if not writes:
        return b""
    return int(writes[::-1].translate(_TO_DIGITS), 2).to_bytes(
        (len(writes) + 7) >> 3, "little")


def _unbitmap(bitmap, count: int) -> bytearray:
    """The inverse of :func:`_bitmap` for a ``count``-record stream."""
    digits = format(int.from_bytes(bitmap, "little"), f"0{len(bitmap) * 8}b")
    return bytearray(digits[::-1][:count].encode("ascii")
                     .translate(_FROM_DIGITS))


def pack_stream(stream: CoreStream, validated: bool = False) -> CoreStream:
    """A copy of ``stream`` (fresh columns) carrying ``validated``."""
    copy = CoreStream(stream.core, stream.vm_id, stream.asid)
    copy.icounts = stream.icounts[:]
    copy.vaddrs = stream.vaddrs[:]
    copy.writes = stream.writes[:]
    copy.validated = validated
    return copy


# -- encoding ------------------------------------------------------------------

def _column_bytes(column: array) -> bytes:
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian host
        column = column[:]
        column.byteswap()
    return column.tobytes()


def encode_streams(streams: Sequence[CoreStream], benchmark: str = "",
                   seed: int = 0, scale: float = 0.0,
                   warmup_by_core: Optional[Dict[int, int]] = None,
                   validated: bool = False) -> bytes:
    """Serialise streams into one packed container (as ``bytes``).

    ``validated`` sets the header flag — callers assert it only after
    running :func:`~repro.workloads.trace.validate_stream` on every
    stream.
    """
    warmups = warmup_by_core or {}
    name = benchmark.encode("utf-8")
    table = bytearray()
    payload = bytearray()
    total = 0
    for stream in streams:
        count = len(stream)
        total += count
        table += _STREAM.pack(stream.core, stream.vm_id, stream.asid,
                              count, warmups.get(stream.core, 0))
        payload += _column_bytes(stream.icounts)
        payload += _column_bytes(stream.vaddrs)
        payload += _bitmap(stream.writes)
    body = name + bytes(table) + bytes(payload)
    flags = FLAG_VALIDATED if validated else 0
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, flags, len(streams), 0,
                          seed, scale, total, sum(warmups.values()),
                          len(name))
    crc = _container_crc(header, body)
    header = (header[:_CRC_OFFSET] + struct.pack("<I", crc)
              + header[_CRC_END:])
    return header + body


def encode_workload(workload, validated: bool = False) -> bytes:
    """Serialise a suite :class:`~repro.workloads.suite.Workload`."""
    return encode_streams(workload.streams,
                          benchmark=workload.profile.name,
                          seed=workload.seed, scale=workload.scale,
                          warmup_by_core=workload.warmup_by_core,
                          validated=validated)


# -- decoding ------------------------------------------------------------------

class DecodedContainer:
    """A parsed container: its streams plus the header metadata."""

    def __init__(self, benchmark: str, seed: int, scale: float,
                 validated: bool, streams: List[CoreStream],
                 warmup_by_core: Dict[int, int], warmup_total: int) -> None:
        self.benchmark = benchmark
        self.seed = seed
        self.scale = scale
        self.validated = validated
        self.streams = streams
        self.warmup_by_core = warmup_by_core
        self.warmup_total = warmup_total

    def workload(self, profile=None):
        """The suite :class:`Workload` this container stores.

        ``profile`` defaults to the suite profile named in the header.
        The workload replays this container's own streams; a run that
        may mutate them (the ``corrupt-trace`` fault) decodes its own
        container.
        """
        from .suite import Workload, get_profile

        if profile is None:
            profile = get_profile(self.benchmark)
        return Workload(profile=profile, streams=list(self.streams),
                        warmup_references=self.warmup_total,
                        seed=self.seed, scale=self.scale,
                        warmup_by_core=dict(self.warmup_by_core))


def _u64_column(view: memoryview) -> array:
    column = array("Q")
    column.frombytes(view)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian host
        column.byteswap()
    return column


def decode_container(buffer, path: str = "") -> DecodedContainer:
    """Parse a packed container from any bytes-like buffer.

    Raises :class:`~repro.common.errors.PackedTraceError` on any damage
    — truncation, bad magic, version skew, CRC mismatch, or a stream
    identity no machine can run.
    """
    view = memoryview(buffer)
    try:
        if len(view) < _HEADER.size:
            raise PackedTraceError("truncated packed trace (no header)",
                                   path=path)
        (magic, version, flags, nstreams, crc, seed, scale, total,
         warmup_total, name_len) = _HEADER.unpack(view[:_HEADER.size])
        if magic != MAGIC:
            raise PackedTraceError("not a packed pomtlb trace "
                                   "(bad magic)", path=path)
        if version != FORMAT_VERSION:
            raise PackedTraceError(
                f"unsupported packed-trace version {version} "
                f"(expected {FORMAT_VERSION})", path=path)
        if _container_crc(bytes(view[:_HEADER.size]),
                          view[_HEADER.size:]) != crc:
            raise PackedTraceError(
                "checksum mismatch (corrupted packed trace)", path=path)
        offset = _HEADER.size
        try:
            benchmark = bytes(view[offset:offset + name_len]).decode("utf-8")
        except UnicodeDecodeError:
            raise PackedTraceError("corrupt benchmark name", path=path
                                   ) from None
        offset += name_len
        table_end = offset + nstreams * _STREAM.size
        if table_end > len(view):
            raise PackedTraceError("truncated stream table", path=path)
        entries = list(_STREAM.iter_unpack(view[offset:table_end]))
        expected = sum(entry[3] for entry in entries)
        if expected != total:
            raise PackedTraceError(
                f"stream table sums to {expected} records, header "
                f"says {total}", path=path)
        validated = bool(flags & FLAG_VALIDATED)
        offset = table_end
        streams: List[CoreStream] = []
        warmup_by_core: Dict[int, int] = {}
        for index, (core, vm_id, asid, count, warmup) in enumerate(entries):
            problem = identity_error(core, vm_id, asid)
            if problem:
                raise PackedTraceError(f"stream {index}: {problem}",
                                       path=path)
            ic_end = offset + count * 8
            va_end = ic_end + count * 8
            wb_end = va_end + ((count + 7) >> 3)
            if wb_end > len(view):
                raise PackedTraceError("truncated column payload",
                                       path=path)
            stream = CoreStream(core, vm_id, asid)
            stream.icounts = _u64_column(view[offset:ic_end])
            stream.vaddrs = _u64_column(view[ic_end:va_end])
            stream.writes = _unbitmap(view[va_end:wb_end], count)
            stream.validated = validated
            streams.append(stream)
            if warmup:
                warmup_by_core[core] = warmup
            offset = wb_end
        if offset != len(view):
            raise PackedTraceError(
                f"{len(view) - offset} trailing byte(s) after payload",
                path=path)
    except struct.error as exc:
        raise PackedTraceError(f"malformed packed trace ({exc})",
                               path=path) from None
    return DecodedContainer(benchmark=benchmark, seed=seed, scale=scale,
                            validated=validated, streams=streams,
                            warmup_by_core=warmup_by_core,
                            warmup_total=warmup_total)


# -- files ---------------------------------------------------------------------

def save_packed(path: str, streams: Sequence[CoreStream], benchmark: str = "",
                seed: int = 0, scale: float = 0.0,
                warmup_by_core: Optional[Dict[int, int]] = None,
                validated: bool = False) -> None:
    """Write a packed container atomically (gzip when ``path`` is .gz)."""
    blob = encode_streams(streams, benchmark=benchmark, seed=seed,
                          scale=scale, warmup_by_core=warmup_by_core,
                          validated=validated)
    if path.endswith(".gz"):
        # mtime pinned to zero so identical workloads gzip to identical
        # bytes — tests compare files, not just contents.
        blob = gzip.compress(blob, mtime=0)
    atomic_write_bytes(path, blob)


def load_packed(path: str) -> DecodedContainer:
    """Load a packed container from disk (gzip when ``path`` is .gz).

    Raises :class:`~repro.common.errors.PackedTraceError` on damage and
    ``OSError`` on I/O failure.
    """
    if path.endswith(".gz"):
        try:
            with gzip.open(path, "rb") as handle:
                blob = handle.read()
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise PackedTraceError(f"torn gzip container ({exc})",
                                   path=path) from None
    else:
        with open(path, "rb") as handle:
            blob = handle.read()
    return decode_container(blob, path=path)
