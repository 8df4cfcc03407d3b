"""Trace analysis: the characterisation tooling behind workload design.

Answers the questions the paper's Section 3.1 answers with PIN + perf:
how big is a trace's footprint, how skewed is its page reuse, and what
TLB miss rate should a given TLB capacity expect (via stack distances).
Used to validate that the synthetic suite reproduces the intended
TLB-relevant behaviour, and useful to anyone bringing their own traces.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..common import addr
from .trace import CoreStream


@dataclass(frozen=True)
class TraceSummary:
    """Headline characterisation of one stream."""

    references: int
    instructions: int
    footprint_pages: int
    footprint_bytes: int
    write_fraction: float
    refs_per_page_touch: float


def summarize(stream: CoreStream) -> TraceSummary:
    """Footprint, write ratio and page-touch density of a stream."""
    pages = set()
    writes = 0
    touches = 0
    last_page = None
    for ref in stream.references:
        page = ref.vaddr >> addr.SMALL_PAGE_SHIFT
        pages.add(page)
        if page != last_page:
            touches += 1
            last_page = page
        if ref.write:
            writes += 1
    count = len(stream.references)
    return TraceSummary(
        references=count,
        instructions=stream.instructions,
        footprint_pages=len(pages),
        footprint_bytes=len(pages) * addr.SMALL_PAGE_SIZE,
        write_fraction=writes / count if count else 0.0,
        refs_per_page_touch=count / touches if touches else 0.0,
    )


def page_popularity(stream: CoreStream, top: int = 10) -> List[tuple]:
    """The ``top`` most-touched pages as (page, touch count)."""
    counts = Counter(ref.vaddr >> addr.SMALL_PAGE_SHIFT
                     for ref in stream.references)
    return counts.most_common(top)


def reuse_distance_histogram(stream: CoreStream,
                             buckets: Iterable[int] = (),
                             max_tracked: int = 1 << 20) -> Dict[str, int]:
    """LRU stack-distance histogram at page granularity.

    The reuse distance of a reference is the number of *distinct* pages
    touched since the last touch of its page — infinite for first
    touches.  Bucketised so the histogram reads directly against TLB
    capacities: a reference with distance < 1536 would hit a 1536-entry
    fully associative L2 TLB.
    """
    edges = sorted(buckets) or [64, 1536, 8192, 65536]
    labels = [f"<{edge}" for edge in edges] + [f">={edges[-1]}", "cold"]
    histogram = {label: 0 for label in labels}
    stack: "OrderedDict[int, None]" = OrderedDict()
    for ref in stream.references:
        page = ref.vaddr >> addr.SMALL_PAGE_SHIFT
        if page in stack:
            distance = 0
            for resident in reversed(stack):
                if resident == page:
                    break
                distance += 1
            stack.move_to_end(page)
            for edge, label in zip(edges, labels):
                if distance < edge:
                    histogram[label] += 1
                    break
            else:
                histogram[f">={edges[-1]}"] += 1
        else:
            histogram["cold"] += 1
            stack[page] = None
            if len(stack) > max_tracked:
                stack.popitem(last=False)
    return histogram


def estimate_tlb_miss_rate(stream: CoreStream, entries: int,
                           skip_cold: bool = True) -> float:
    """Miss-rate estimate for a fully associative LRU TLB of ``entries``.

    Classic stack-distance argument: a reference misses iff its reuse
    distance is >= the TLB's capacity.  ``skip_cold`` excludes first
    touches (steady-state view, matching the simulator's warmup).
    """
    if entries <= 0:
        raise ValueError("TLB capacity must be positive")
    stack: "OrderedDict[int, None]" = OrderedDict()
    misses = 0
    total = 0
    for ref in stream.references:
        page = ref.vaddr >> addr.SMALL_PAGE_SHIFT
        if page in stack:
            distance = 0
            for resident in reversed(stack):
                if resident == page:
                    break
                distance += 1
            stack.move_to_end(page)
            total += 1
            if distance >= entries:
                misses += 1
        else:
            stack[page] = None
            if not skip_cold:
                total += 1
                misses += 1
    return misses / total if total else 0.0
