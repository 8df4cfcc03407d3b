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
"""

from __future__ import annotations

import gzip
import io
from array import array
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import gt
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from ..common.errors import TraceFormatError


class MemoryReference(NamedTuple):
    """One memory instruction of a trace."""

    icount: int  # instructions retired before this reference (per thread)
    vaddr: int   # virtual address touched
    write: bool  # store (True) or load (False)


@dataclass
class CoreStream:
    """The reference stream one core executes, plus its software context."""

    core: int
    vm_id: int
    asid: int
    references: Sequence[MemoryReference] = field(default_factory=list)

    def __iter__(self) -> Iterator[MemoryReference]:
        return iter(self.references)

    def __len__(self) -> int:
        return len(self.references)

    @property
    def instructions(self) -> int:
        """Instructions the stream represents (icount of the last ref)."""
        return self.references[-1].icount if self.references else 0


# -- serialization -------------------------------------------------------------
#
# One line per record: "<icount> <vaddr-hex> <R|W>", preceded by a single
# header line "#pomtlb-trace core=<c> vm=<v> asid=<a>".  Gzip when the
# path ends in .gz.  The format is intentionally greppable.

_HEADER_PREFIX = "#pomtlb-trace"

#: Virtual addresses are at most this many bits; anything wider in a
#: trace is corruption (a flipped sign bit, a torn write), not a bigger
#: machine.
MAX_ADDRESS_BITS = 64
_MAX_VADDR = (1 << MAX_ADDRESS_BITS) - 1


def _open(path: str, mode: str):
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t")
    return io.open(path, mode)


def save_stream(stream: CoreStream, path: str) -> None:
    """Write one core's stream to ``path`` (gzip if ``.gz``)."""
    with _open(path, "w") as out:
        out.write(f"{_HEADER_PREFIX} core={stream.core} "
                  f"vm={stream.vm_id} asid={stream.asid}\n")
        for ref in stream.references:
            out.write(f"{ref.icount} {ref.vaddr:x} {'W' if ref.write else 'R'}\n")


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
        return int(fields["core"]), int(fields["vm"]), int(fields["asid"])
    except KeyError as missing:
        raise TraceFormatError(f"header missing field {missing}",
                               path=path, lineno=1, text=header) from None
    except ValueError:
        raise TraceFormatError("non-integer header field",
                               path=path, lineno=1, text=header) from None


def _iter_records(inp, path: str) -> Iterator[tuple]:
    """Yield validated ``(icount, vaddr, write)`` tuples, one per line.

    A generator so both loaders decode strictly line-by-line — gzip
    included — and the packed loader never holds the whole trace as
    Python objects.  Every diagnostic carries the file, the line number
    and the offending text, so a corrupt trace points at its own damage
    instead of surfacing as a simulator crash thousands of references
    later.
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
    line-by-line even through gzip — the decompressed text is never
    buffered whole.
    """
    with _open(path, "r") as inp:
        core, vm_id, asid = _parse_header(inp, path)
        refs = [MemoryReference(icount=i, vaddr=v, write=w)
                for i, v, w in _iter_records(inp, path)]
        return CoreStream(core=core, vm_id=vm_id, asid=asid,
                          references=refs)


def load_stream_packed(path: str):
    """Read a text trace straight into a packed columnar stream.

    Same grammar and diagnostics as :func:`load_stream`, but records
    stream directly into ``array('Q')`` columns (~17 bytes/record)
    instead of a ``MemoryReference`` list (~120 bytes/record), so
    converting a large trace never holds it as Python objects — this is
    what ``pomtlb trace pack`` runs.
    """
    from array import array

    from .packed import PackedStream

    with _open(path, "r") as inp:
        core, vm_id, asid = _parse_header(inp, path)
        icounts = array("Q")
        vaddrs = array("Q")
        writebits = bytearray()
        count = 0
        for icount, vaddr, write in _iter_records(inp, path):
            if not count & 7:
                writebits.append(0)
            if write:
                writebits[-1] |= 1 << (count & 7)
            icounts.append(icount)
            vaddrs.append(vaddr)
            count += 1
        return PackedStream(core, vm_id, asid, icounts, vaddrs,
                            bytes(writebits), count)


def validate_stream(stream: CoreStream) -> None:
    """Check trace invariants; raises :class:`TraceFormatError`.

    Instruction counts must be non-decreasing (references issue in
    program order) and addresses must fit a 64-bit virtual address.
    Runs before every simulation (except on packed streams whose
    ``validated`` flag records this check already passed), so a
    corrupt stream — hand-edited, torn, or injected by the fault
    harness — fails with a diagnostic instead of poisoning results.
    """
    icounts = getattr(stream, "icounts", None)
    if icounts is not None:
        # Columnar fast path: u64 columns cannot hold an out-of-range
        # address, so only icount monotonicity needs checking.
        last = -1
        for position, icount in enumerate(icounts):
            if icount < last:
                raise TraceFormatError(
                    f"record {position}: icount {icount} goes backwards "
                    f"(previous {last})", lineno=position + 1,
                    text=repr(stream.references[position]))
            last = icount
        return
    last = -1
    for position, ref in enumerate(stream.references):
        if ref.icount < last:
            raise TraceFormatError(
                f"record {position}: icount {ref.icount} goes backwards "
                f"(previous {last})", lineno=position + 1, text=repr(ref))
        if ref.vaddr < 0 or ref.vaddr > _MAX_VADDR:
            raise TraceFormatError(
                f"record {position}: address out of range (not a "
                f"{MAX_ADDRESS_BITS}-bit virtual address)",
                lineno=position + 1, text=repr(ref))
        last = ref.icount


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


#: ``_BIT_BYTES[b]`` is byte ``b`` of a write bitmap unpacked LSB-first
#: into eight 0/1 bytes, one per record.
_BIT_BYTES = tuple(bytes((b >> k) & 1 for k in range(8)) for b in range(256))


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
    writes: bytes
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
    with :func:`validate_stream`'s :class:`TraceFormatError`; packed
    streams flagged ``validated`` skip that check.
    """
    sources = sorted((s for s in streams if len(s)), key=lambda s: s.core)
    starts: List[int] = []
    owner = array("I")
    icounts = array("Q")
    vaddrs = array("Q")
    writes = bytearray()
    for index, stream in enumerate(sources):
        starts.append(len(icounts))
        count = len(stream)
        columns = stream.columns() if hasattr(stream, "columns") else None
        if columns is not None:
            ics, vas, bits = columns
            writes += b"".join(map(_BIT_BYTES.__getitem__, bits))[:count]
        else:
            # One C-level transpose of the record tuples.
            ics, vas, wrs = zip(*stream.references)
            writes += bytes(map(bool, wrs))
        if (not getattr(stream, "validated", False)
                and any(map(gt, ics, islice(ics, 1, None)))):
            validate_stream(stream)
        icounts.extend(ics)
        vaddrs.extend(vas)
        owner.extend(repeat(index, count))
    order = array("I", sorted(range(len(icounts)), key=icounts.__getitem__))
    return MergedStreams(sources, starts, owner, icounts, vaddrs,
                         bytes(writes), order)
