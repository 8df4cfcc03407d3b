"""Memory-trace format.

A trace is what the paper's PIN + pagemap tooling produced: per-thread
streams of memory references annotated with the instruction count at
which they issue.  The simulator merges per-core streams by instruction
order (Ramulator-style issue cadence); the instruction counts therefore
also encode how much non-memory work separates the references.

Records are deliberately minimal — ``(icount, vaddr, write)`` — page
sizes and physical placement are decided by the simulated OS (THP policy
+ demand paging), exactly as in the paper's methodology where pagemap
metadata comes from the OS, not the application.

:class:`CoreStream` is the one stream type.  It holds its records as
columns — ``icounts`` and ``vaddrs`` as ``array('Q')``, ``writes`` as
one 0/1 byte per record — so generation, the text loader and the
packed codec (:mod:`repro.workloads.packed`) write columns directly and
both replay engines read them without building per-record objects.
``references`` is a read-only :class:`MemoryReference` view for the
cold paths (:func:`interleave`, the reference engine, trace analysis).
"""

from __future__ import annotations

import gzip
import io
from array import array
from itertools import islice, repeat
from operator import gt
from typing import (Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..common.errors import TraceFormatError
from ..tlb.entry import KEY_ASID_MASK, KEY_VM_MASK

#: Virtual addresses are at most this many bits; anything wider in a
#: trace is corruption (a flipped sign bit, a torn write), not a bigger
#: machine.
MAX_ADDRESS_BITS = 64
_MAX_VADDR = (1 << MAX_ADDRESS_BITS) - 1

_BOOLS = (False, True)


class MemoryReference(NamedTuple):
    """One memory instruction of a trace."""

    icount: int  # instructions retired before this reference (per thread)
    vaddr: int   # virtual address touched
    write: bool  # store (True) or load (False)


def identity_error(core: int, vm_id: int, asid: int,
                   num_cores: Optional[int] = None) -> str:
    """Why ``(core, vm_id, asid)`` cannot name a stream ('' if it can).

    VM ids and ASIDs must fit the 16-bit fields of a packed TLB key;
    ``num_cores`` (when known) bounds the core.
    """
    if core < 0:
        return f"stream core {core} is negative"
    if num_cores is not None and core >= num_cores:
        return f"stream core {core} >= {num_cores} cores"
    if not 0 <= vm_id <= KEY_VM_MASK:
        return f"stream vm {vm_id} outside 0..{KEY_VM_MASK}"
    if not 0 <= asid <= KEY_ASID_MASK:
        return f"stream asid {asid} outside 0..{KEY_ASID_MASK}"
    return ""


class CoreStream:
    """The reference stream one core executes, plus its software context.

    ``CoreStream(core, vm_id, asid, references=records)`` converts the
    records to columns once; a negative icount or an address outside 64
    bits raises :class:`TraceFormatError` naming the record.
    ``validated`` records that :func:`validate_stream` passed since the
    columns were last edited: whoever edits them clears it.
    """

    __slots__ = ("core", "vm_id", "asid", "icounts", "vaddrs", "writes",
                 "validated")

    def __init__(self, core: int, vm_id: int, asid: int,
                 references: Iterable[Sequence] = ()) -> None:
        self.core = core
        self.vm_id = vm_id
        self.asid = asid
        self.validated = False
        self.icounts = array("Q")
        self.vaddrs = array("Q")
        #: one byte per reference: 1 for a store, 0 for a load
        self.writes = bytearray()
        refs = list(references)
        if refs:
            icounts, vaddrs, writes = zip(*refs)
            try:
                self.icounts = array("Q", icounts)
                self.vaddrs = array("Q", vaddrs)
            except OverflowError:
                _reject_record(refs)
                raise
            self.writes = bytearray(map(bool, writes))

    @property
    def references(self) -> "_RefView":
        """The records as a read-only ``Sequence[MemoryReference]``."""
        return _RefView(self)

    def __iter__(self) -> Iterator[MemoryReference]:
        return iter(self.references)

    def __len__(self) -> int:
        return len(self.icounts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoreStream):
            return NotImplemented
        return ((self.core, self.vm_id, self.asid, self.icounts,
                 self.vaddrs, self.writes)
                == (other.core, other.vm_id, other.asid, other.icounts,
                    other.vaddrs, other.writes))

    __hash__ = None  # mutable

    @property
    def instructions(self) -> int:
        """Instructions the stream represents (icount of the last ref)."""
        return self.icounts[-1] if self.icounts else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CoreStream(core={self.core}, vm={self.vm_id}, "
                f"asid={self.asid}, refs={len(self)}, "
                f"validated={self.validated})")


def _reject_record(refs: Sequence[Sequence]) -> None:
    """Raise the :class:`TraceFormatError` for the first unstorable record."""
    for position, ref in enumerate(refs):
        icount, vaddr = ref[0], ref[1]
        if icount < 0:
            problem = "negative instruction count"
        elif icount > _MAX_VADDR:
            problem = "instruction count out of range (not 64-bit)"
        elif not 0 <= vaddr <= _MAX_VADDR:
            problem = (f"address out of range (not a {MAX_ADDRESS_BITS}-bit "
                       "virtual address)")
        else:
            continue
        raise TraceFormatError(f"record {position}: {problem}",
                               lineno=position + 1, text=repr(ref))


class _RefView(Sequence):
    """Read-only ``Sequence[MemoryReference]`` over a stream's columns."""

    __slots__ = ("_stream",)

    def __init__(self, stream: CoreStream) -> None:
        self._stream = stream

    def __len__(self) -> int:
        return len(self._stream.icounts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        stream = self._stream
        return MemoryReference(stream.icounts[index], stream.vaddrs[index],
                               _BOOLS[stream.writes[index]])

    def __iter__(self) -> Iterator[MemoryReference]:
        stream = self._stream
        return map(MemoryReference, stream.icounts, stream.vaddrs,
                   map(_BOOLS.__getitem__, stream.writes))

    def __eq__(self, other) -> bool:
        if isinstance(other, (_RefView, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


# -- serialization -------------------------------------------------------------
#
# One line per record: "<icount> <vaddr-hex> <R|W>", preceded by a single
# header line "#pomtlb-trace core=<c> vm=<v> asid=<a>".  Gzip when the
# path ends in .gz.  The format is intentionally greppable.

_HEADER_PREFIX = "#pomtlb-trace"


def _open(path: str, mode: str):
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t")
    return io.open(path, mode)


def save_stream(stream: CoreStream, path: str) -> None:
    """Write one core's stream to ``path`` (gzip if ``.gz``)."""
    with _open(path, "w") as out:
        out.write(f"{_HEADER_PREFIX} core={stream.core} "
                  f"vm={stream.vm_id} asid={stream.asid}\n")
        for icount, vaddr, write in zip(stream.icounts, stream.vaddrs,
                                        stream.writes):
            out.write(f"{icount} {vaddr:x} {'W' if write else 'R'}\n")


def _parse_header(inp, path: str) -> tuple:
    """Parse the ``#pomtlb-trace`` header line; returns (core, vm, asid)."""
    try:
        header = inp.readline().strip()
    except (EOFError, OSError) as exc:
        # A torn gzip archive can fail on the very first read.
        raise TraceFormatError(f"truncated trace file ({exc})",
                               path=path, lineno=1) from None
    if not header:
        raise TraceFormatError("empty trace file (truncated?)",
                               path=path, lineno=1)
    if not header.startswith(_HEADER_PREFIX):
        raise TraceFormatError("missing trace header",
                               path=path, lineno=1, text=header)
    fields = dict(part.split("=", 1) for part in header.split()[1:])
    try:
        identity = int(fields["core"]), int(fields["vm"]), int(fields["asid"])
    except KeyError as missing:
        raise TraceFormatError(f"header missing field {missing}",
                               path=path, lineno=1, text=header) from None
    except ValueError:
        raise TraceFormatError("non-integer header field",
                               path=path, lineno=1, text=header) from None
    problem = identity_error(*identity)
    if problem:
        raise TraceFormatError(problem, path=path, lineno=1, text=header)
    return identity


def _iter_records(inp, path: str) -> Iterator[tuple]:
    """Yield validated ``(icount, vaddr, write)`` tuples, one per line.

    A generator so the loader decodes strictly line-by-line — gzip
    included — and never holds the whole trace as Python objects.
    Every diagnostic carries the file, the line number and the
    offending text, so a corrupt trace points at its own damage instead
    of surfacing as a simulator crash thousands of references later.
    """
    lineno = 1
    try:
        for lineno, line in enumerate(inp, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise TraceFormatError(
                    "truncated record (expected '<icount> <vaddr-hex> "
                    "<R|W>')", path=path, lineno=lineno,
                    text=line.rstrip("\n"))
            if parts[2] not in ("R", "W"):
                raise TraceFormatError(
                    f"bad access type {parts[2]!r} (expected R or W)",
                    path=path, lineno=lineno, text=line.rstrip("\n"))
            try:
                icount = int(parts[0])
                vaddr = int(parts[1], 16)
            except ValueError:
                raise TraceFormatError(
                    "non-numeric record field", path=path, lineno=lineno,
                    text=line.rstrip("\n")) from None
            if icount < 0:
                raise TraceFormatError(
                    "negative instruction count", path=path,
                    lineno=lineno, text=line.rstrip("\n"))
            if vaddr < 0 or vaddr > _MAX_VADDR:
                raise TraceFormatError(
                    f"address out of range (not a {MAX_ADDRESS_BITS}-bit "
                    "virtual address)", path=path, lineno=lineno,
                    text=line.rstrip("\n"))
            yield icount, vaddr, parts[2] == "W"
    except (EOFError, OSError) as exc:
        # gzip raises on a torn archive mid-iteration.
        raise TraceFormatError(f"truncated trace file ({exc})",
                               path=path, lineno=lineno) from None


def load_stream(path: str) -> CoreStream:
    """Read one core's stream back from ``path``.

    Strictly validated (see :func:`_iter_records`) and streamed
    line-by-line even through gzip straight into the stream's columns
    (~17 bytes/record) — neither the decompressed text nor per-record
    objects are ever held whole.
    """
    with _open(path, "r") as inp:
        stream = CoreStream(*_parse_header(inp, path))
        add_icount = stream.icounts.append
        add_vaddr = stream.vaddrs.append
        add_write = stream.writes.append
        for icount, vaddr, write in _iter_records(inp, path):
            add_icount(icount)
            add_vaddr(vaddr)
            add_write(write)
        return stream


def validate_stream(stream: CoreStream) -> None:
    """Check that instruction counts never go backwards.

    References issue in program order, so icounts must be
    non-decreasing; a u64 column cannot hold any other damage.  Raises
    :class:`TraceFormatError` naming the first offending record, and
    sets ``stream.validated`` when the check passes.  Runs before every
    simulation of a stream not already flagged, so a corrupt stream —
    hand-edited, torn, or injected by the fault harness — fails with a
    diagnostic instead of poisoning results.
    """
    icounts = stream.icounts
    if any(map(gt, icounts, islice(icounts, 1, None))):
        last = icounts[0]
        for position, icount in enumerate(icounts):
            if icount < last:
                raise TraceFormatError(
                    f"record {position}: icount {icount} goes backwards "
                    f"(previous {last})", lineno=position + 1,
                    text=repr(stream.references[position]))
            last = icount
    stream.validated = True


def interleave(streams: Iterable[CoreStream]) -> Iterator[tuple]:
    """Merge streams by instruction count: yields (stream, reference).

    Ties break by core id, then by stream order, so runs are
    deterministic.  This heap merge is the specification of the replay
    order; :func:`merge_order` computes the same order in one sort.
    """
    import heapq

    heap = []
    iterators = []
    for stream in streams:
        iterator = iter(stream.references)
        iterators.append((stream, iterator))
        first = next(iterator, None)
        if first is not None:
            heapq.heappush(heap, (first.icount, stream.core, len(iterators) - 1, first))
    while heap:
        _icount, _core, index, ref = heapq.heappop(heap)
        stream, iterator = iterators[index]
        yield stream, ref
        nxt = next(iterator, None)
        if nxt is not None:
            heapq.heappush(heap, (nxt.icount, stream.core, index, nxt))


class MergedStreams(NamedTuple):
    """Every reference of a set of streams as flat columns, in replay order.

    The non-empty streams, sorted by core (ties keep their arrival
    order), are concatenated into the ``icounts``/``vaddrs``/``writes``
    columns; ``starts[s]`` is the column index of stream ``s``'s first
    reference and ``owner[j]`` the stream of column index ``j``.
    ``order`` lists the column indices in replay order.
    """

    streams: List[CoreStream]
    starts: List[int]
    owner: array
    icounts: array
    vaddrs: array
    #: one byte per reference: 1 for a store, 0 for a load
    writes: bytearray
    order: array

    def at(self, position: int) -> Tuple[CoreStream, int]:
        """The stream and its record index replayed at ``position``."""
        j = self.order[position]
        s = self.owner[j]
        return self.streams[s], j - self.starts[s]


def merge_order(streams: Iterable[CoreStream]) -> MergedStreams:
    """The replay order of :func:`interleave`, computed in one sort.

    Within a stream icounts never decrease, so one stable sort of the
    concatenated icount column by value reproduces the heap merge's
    ``(icount, core, arrival, index)`` order exactly.  A stream whose
    icount goes backwards (the sort and the merge would disagree) fails
    with :func:`validate_stream`'s :class:`TraceFormatError`; streams
    flagged ``validated`` skip that check.
    """
    sources = sorted((s for s in streams if len(s)), key=lambda s: s.core)
    starts: List[int] = []
    owner = array("I")
    icounts = array("Q")
    vaddrs = array("Q")
    writes = bytearray()
    for index, stream in enumerate(sources):
        if not stream.validated:
            validate_stream(stream)
        starts.append(len(icounts))
        icounts += stream.icounts
        vaddrs += stream.vaddrs
        writes += stream.writes
        owner.extend(repeat(index, len(stream)))
    order = array("I", sorted(range(len(icounts)), key=icounts.__getitem__))
    return MergedStreams(sources, starts, owner, icounts, vaddrs, writes,
                         order)
