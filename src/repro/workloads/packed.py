"""Packed binary trace format: columnar streams for campaign-scale replay.

The text ``#pomtlb-trace`` format (:mod:`repro.workloads.trace`) is
greppable but expensive to hold: a :class:`MemoryReference` namedtuple
costs ~120 bytes of heap per record and must be re-parsed on every load.
This module stores the same records as three per-stream *columns* —
``icount`` and ``vaddr`` as little-endian 64-bit arrays plus a write
bitmap at one bit per record (17 bytes/record total) — inside a single
fixed-header container that can be

* attached as bytes to a campaign run request (the parent compiles each
  distinct workload once) or written atomically to a ``.pwl`` file
  (``pomtlb trace pack``, audit repro artifacts),
* decoded **zero-copy** from bytes or a memory-mapped file (decoding
  builds ``memoryview`` casts over the source buffer; no per-record
  object is materialised), and
* replayed directly by the simulator's hot loop
  (:meth:`repro.core.system.Machine.run` reads the columns without
  constructing ``MemoryReference`` tuples).

Round-tripping is exact: packing then unpacking reproduces the original
records bit for bit, which is what lets the campaign prove byte-identical
reports whether a run replays a generated or a packed workload
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
container (decoded from a decompressed copy — gzip forfeits zero-copy).
"""

from __future__ import annotations

import gzip
import mmap
import struct
import sys
import zlib
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..common.errors import PackedTraceError
from ..common.fileio import atomic_write_bytes
from .trace import MemoryReference

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

_BOOLS = (False, True)


def _u64_column(view: memoryview) -> Sequence[int]:
    """A random-access u64 sequence over ``view`` (little-endian bytes).

    Zero-copy on little-endian hosts (a ``memoryview`` cast); big-endian
    hosts fall back to a byte-swapped ``array('Q')`` copy so the on-disk
    format stays portable.
    """
    if _LITTLE_ENDIAN:
        return view.cast("Q")
    column = array("Q")
    column.frombytes(view)
    column.byteswap()
    return column


class _RefView(Sequence):
    """Lazy ``Sequence[MemoryReference]`` over a stream's packed columns.

    Only the cold paths (interleave heap boundaries, hand-written tests,
    ``corrupt_streams``) materialise tuples through this view; the
    simulator's hot loop reads the columns directly.
    """

    __slots__ = ("_icounts", "_vaddrs", "_writebits", "_count")

    def __init__(self, icounts, vaddrs, writebits, count: int) -> None:
        self._icounts = icounts
        self._vaddrs = vaddrs
        self._writebits = writebits
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._count))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(index)
        return MemoryReference(
            self._icounts[index], self._vaddrs[index],
            _BOOLS[(self._writebits[index >> 3] >> (index & 7)) & 1])

    def __iter__(self) -> Iterator[MemoryReference]:
        icounts, vaddrs, writebits = self._icounts, self._vaddrs, self._writebits
        for i in range(self._count):
            yield MemoryReference(icounts[i], vaddrs[i],
                                  _BOOLS[(writebits[i >> 3] >> (i & 7)) & 1])


class PackedStream:
    """A core's reference stream backed by columnar arrays.

    Duck-compatible with :class:`~repro.workloads.trace.CoreStream`
    everywhere the simulator and tooling touch streams: ``core`` /
    ``vm_id`` / ``asid``, iteration, ``len``, ``instructions`` and the
    ``references`` sequence.  Assigning ``references`` (what the
    ``corrupt-trace`` fault does) *de-packs* the stream: the columns are
    dropped, the replacement records become the backing store, and
    ``validated`` resets so strict validation sees the damage.
    """

    __slots__ = ("core", "vm_id", "asid", "validated",
                 "_icounts", "_vaddrs", "_writebits", "_count", "_refs")

    def __init__(self, core: int, vm_id: int, asid: int,
                 icounts, vaddrs, writebits, count: int,
                 validated: bool = False) -> None:
        self.core = core
        self.vm_id = vm_id
        self.asid = asid
        self.validated = validated
        self._icounts = icounts
        self._vaddrs = vaddrs
        self._writebits = writebits
        self._count = count
        self._refs: Optional[List[MemoryReference]] = None

    # -- CoreStream protocol --------------------------------------------------

    @property
    def references(self) -> Sequence[MemoryReference]:
        if self._refs is not None:
            return self._refs
        return _RefView(self._icounts, self._vaddrs, self._writebits,
                        self._count)

    @references.setter
    def references(self, refs) -> None:
        # De-pack: whoever replaces the records (fault injection, hand
        # editing in tests) gets plain-list semantics and, crucially,
        # loses the validated waiver.
        self._refs = list(refs)
        self._count = len(self._refs)
        self._icounts = self._vaddrs = self._writebits = None
        self.validated = False

    def __iter__(self) -> Iterator[MemoryReference]:
        return iter(self.references)

    def __len__(self) -> int:
        return len(self._refs) if self._refs is not None else self._count

    @property
    def instructions(self) -> int:
        """Instructions the stream represents (icount of the last ref)."""
        if self._refs is not None:
            return self._refs[-1].icount if self._refs else 0
        return self._icounts[self._count - 1] if self._count else 0

    # -- hot-loop access ------------------------------------------------------

    @property
    def icounts(self) -> Optional[Sequence[int]]:
        """The icount column, or None once the stream was de-packed."""
        return self._icounts if self._refs is None else None

    def columns(self) -> Optional[Tuple]:
        """(icounts, vaddrs, writebits) for columnar replay, or None."""
        if self._refs is not None:
            return None
        return self._icounts, self._vaddrs, self._writebits

    def view(self) -> "PackedStream":
        """A fresh stream sharing these columns.

        Hands each simulation its own mutation scope: a run that
        de-packs its view (corrupt-trace fault) cannot damage the shared
        backing, so one compiled workload can feed many runs.
        """
        if self._refs is not None:
            clone = PackedStream(self.core, self.vm_id, self.asid,
                                 None, None, None, 0, validated=False)
            clone._refs = list(self._refs)
            clone._count = len(clone._refs)
            return clone
        return PackedStream(self.core, self.vm_id, self.asid,
                            self._icounts, self._vaddrs, self._writebits,
                            self._count, validated=self.validated)

    def release(self) -> None:
        """Drop the column references (see :class:`PackedBuffer`)."""
        self._icounts = self._vaddrs = self._writebits = None
        if self._refs is None:
            self._refs = []
            self._count = 0
        self.validated = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PackedStream(core={self.core}, vm={self.vm_id}, "
                f"asid={self.asid}, refs={len(self)}, "
                f"validated={self.validated})")


def pack_stream(stream, validated: bool = False) -> PackedStream:
    """Columnarise one stream (CoreStream or de-packed PackedStream)."""
    refs = stream.references
    count = len(refs)
    icounts = array("Q", (ref[0] for ref in refs))
    vaddrs = array("Q", (ref[1] for ref in refs))
    writebits = bytearray((count + 7) >> 3)
    for i, ref in enumerate(refs):
        if ref[2]:
            writebits[i >> 3] |= 1 << (i & 7)
    return PackedStream(stream.core, stream.vm_id, stream.asid,
                        icounts, vaddrs, bytes(writebits), count,
                        validated=validated)


def unpack_stream(stream: PackedStream):
    """The list-backed :class:`CoreStream` equivalent of ``stream``."""
    from .trace import CoreStream

    return CoreStream(core=stream.core, vm_id=stream.vm_id,
                      asid=stream.asid, references=list(stream.references))


class PackedBuffer:
    """Owns the buffer behind a decoded workload and its exported views.

    Decoding is zero-copy, which means the bytes or mmap must outlive
    every column view cut from it.  The buffer object rides on the
    decoded workload (``workload.backing``); :meth:`close` releases the
    views *first* (streams drop their columns) and only then closes the
    underlying map — closing an mmap with exported views raises
    ``BufferError`` otherwise.
    """

    def __init__(self, owner=None, views: Optional[List[memoryview]] = None,
                 streams: Optional[List[PackedStream]] = None) -> None:
        self._owner = owner
        self._views = views or []
        self._streams = streams or []
        self.closed = False

    def adopt(self, streams: List[PackedStream]) -> None:
        self._streams = list(streams)

    def close(self) -> None:
        """Release column views and close the backing map (idempotent)."""
        if self.closed:
            return
        self.closed = True
        for stream in self._streams:
            stream.release()
        self._streams = []
        for view in reversed(self._views):
            try:
                view.release()
            except BufferError:  # pragma: no cover - still-exported view
                pass
        self._views = []
        owner = self._owner
        self._owner = None
        if owner is not None:
            owner.close()


# -- encoding ------------------------------------------------------------------

def _column_bytes(column) -> bytes:
    if isinstance(column, array):
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian host
            column = array("Q", column)
            column.byteswap()
        return column.tobytes()
    if isinstance(column, memoryview):
        return column.tobytes() if _LITTLE_ENDIAN else _swapped(column)
    return bytes(column)


def _swapped(view: memoryview) -> bytes:  # pragma: no cover - big-endian
    swap = array("Q")
    swap.frombytes(view)
    swap.byteswap()
    return swap.tobytes()


def encode_streams(streams: Sequence, benchmark: str = "",
                   seed: int = 0, scale: float = 0.0,
                   warmup_by_core: Optional[Dict[int, int]] = None,
                   validated: bool = False) -> bytes:
    """Serialise streams into one packed container (as ``bytes``).

    ``streams`` may mix :class:`PackedStream` and ``CoreStream``; list-
    backed streams are columnarised on the way out.  ``validated`` sets
    the header flag — callers assert it only after running
    :func:`~repro.workloads.trace.validate_stream` on every stream.
    """
    warmups = warmup_by_core or {}
    name = benchmark.encode("utf-8")
    table = bytearray()
    payload = bytearray()
    total = 0
    packed_streams: List[PackedStream] = []
    for stream in streams:
        packed = (stream if isinstance(stream, PackedStream)
                  and stream.columns() is not None else pack_stream(stream))
        packed_streams.append(packed)
    for packed in packed_streams:
        count = len(packed)
        total += count
        table += _STREAM.pack(packed.core, packed.vm_id, packed.asid,
                              count, warmups.get(packed.core, 0))
    for packed in packed_streams:
        icounts, vaddrs, writebits = packed.columns()
        payload += _column_bytes(icounts)
        payload += _column_bytes(vaddrs)
        payload += bytes(writebits)
    body = name + bytes(table) + bytes(payload)
    flags = FLAG_VALIDATED if validated else 0
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, flags,
                          len(packed_streams), 0,
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
    """A parsed container: stream columns plus the header metadata."""

    def __init__(self, benchmark: str, seed: int, scale: float,
                 validated: bool, streams: List[PackedStream],
                 warmup_by_core: Dict[int, int], warmup_total: int,
                 backing: PackedBuffer) -> None:
        self.benchmark = benchmark
        self.seed = seed
        self.scale = scale
        self.validated = validated
        self.streams = streams
        self.warmup_by_core = warmup_by_core
        self.warmup_total = warmup_total
        self.backing = backing

    def workload(self, profile=None):
        """Rehydrate the suite :class:`Workload` this container stores.

        ``profile`` defaults to the suite profile named in the header.
        Streams are fresh :meth:`PackedStream.view`\\ s sharing the
        container's columns, so one container feeds many runs: a run
        that mutates its streams (the ``corrupt-trace`` fault de-packs
        them) cannot taint a sibling run or the shared backing.  The
        workload keeps a reference to the container's
        :class:`PackedBuffer` (``workload.backing``) so zero-copy
        columns stay alive as long as the workload does.
        """
        from .suite import Workload, get_profile

        if profile is None:
            profile = get_profile(self.benchmark)
        workload = Workload(profile=profile,
                            streams=[s.view() for s in self.streams],
                            warmup_references=self.warmup_total,
                            seed=self.seed, scale=self.scale,
                            warmup_by_core=dict(self.warmup_by_core))
        workload.backing = self.backing
        return workload


def decode_container(buffer, path: str = "", owner=None,
                     verify_crc: bool = True) -> DecodedContainer:
    """Parse a packed container from any bytes-like buffer, zero-copy.

    ``owner`` (an mmap or other object with ``close()``)
    is adopted by the returned container's :class:`PackedBuffer` so its
    lifetime is tied to the decoded streams.  Raises
    :class:`~repro.common.errors.PackedTraceError` on any damage —
    truncation, bad magic, version skew, or CRC mismatch.
    """
    view = memoryview(buffer)
    views = [view]
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
        body = view[_HEADER.size:]
        views.append(body)
        if verify_crc and _container_crc(bytes(view[:_HEADER.size]),
                                         body) != crc:
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
        entries = []
        expected = 0
        for i in range(nstreams):
            entry = _STREAM.unpack(
                view[offset + i * _STREAM.size:
                     offset + (i + 1) * _STREAM.size])
            entries.append(entry)
            expected += entry[3]
        if expected != total:
            raise PackedTraceError(
                f"stream table sums to {expected} records, header "
                f"says {total}", path=path)
        validated = bool(flags & FLAG_VALIDATED)
        offset = table_end
        streams: List[PackedStream] = []
        warmup_by_core: Dict[int, int] = {}
        for core, vm_id, asid, count, warmup in entries:
            ic_end = offset + count * 8
            va_end = ic_end + count * 8
            wb_end = va_end + ((count + 7) >> 3)
            if wb_end > len(view):
                raise PackedTraceError("truncated column payload",
                                       path=path)
            ic_view = view[offset:ic_end]
            va_view = view[ic_end:va_end]
            wb_view = view[va_end:wb_end]
            views += [ic_view, va_view, wb_view]
            streams.append(PackedStream(
                core, vm_id, asid,
                _u64_column(ic_view), _u64_column(va_view), wb_view,
                count, validated=validated))
            if warmup:
                warmup_by_core[core] = warmup
            offset = wb_end
        if offset != len(view):
            raise PackedTraceError(
                f"{len(view) - offset} trailing byte(s) after payload",
                path=path)
    except (PackedTraceError, struct.error) as exc:
        for pending in reversed(views):
            try:
                pending.release()
            except BufferError:  # pragma: no cover
                pass
        if owner is not None:
            owner.close()
        if isinstance(exc, struct.error):
            raise PackedTraceError(f"malformed packed trace ({exc})",
                                   path=path) from None
        raise
    backing = PackedBuffer(owner=owner, views=views, streams=streams)
    return DecodedContainer(benchmark=benchmark, seed=seed, scale=scale,
                            validated=validated, streams=streams,
                            warmup_by_core=warmup_by_core,
                            warmup_total=warmup_total, backing=backing)


# -- files ---------------------------------------------------------------------

def save_packed(path: str, streams: Sequence, benchmark: str = "",
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


def save_packed_workload(path: str, workload, validated: bool = False) -> None:
    """Write a suite workload as a packed container (see save_packed)."""
    save_packed(path, workload.streams, benchmark=workload.profile.name,
                seed=workload.seed, scale=workload.scale,
                warmup_by_core=workload.warmup_by_core, validated=validated)


def load_packed(path: str, use_mmap: bool = True) -> DecodedContainer:
    """Load a packed container from disk.

    Plain files are memory-mapped so the columns alias the page cache
    (zero-copy); gzip files decompress into one bytes object first.
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
        return decode_container(blob, path=path)
    with open(path, "rb") as handle:
        if use_mmap:
            try:
                mapped = mmap.mmap(handle.fileno(), 0,
                                   access=mmap.ACCESS_READ)
            except ValueError:  # empty file cannot be mapped
                raise PackedTraceError("truncated packed trace (empty file)",
                                       path=path) from None
            return decode_container(mapped, path=path, owner=mapped)
        return decode_container(handle.read(), path=path)
