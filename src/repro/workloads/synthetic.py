"""Synthetic memory-access pattern generators.

Each generator produces an endless stream of **page indices** inside one
region of a benchmark's address space; the suite composes weighted
mixtures of regions into full reference traces.  The patterns are the
canonical ones the paper's workloads exhibit:

``sequential``
    streaming sweeps (lbm, libquantum, streamcluster): page i, i+1, ...
    wrap-around.  Misses arrive in address order, which is what produces
    the POM-TLB's spatial locality (4 entries per 64 B set line, 32 sets
    per DRAM row).
``strided``
    grid walks (GemsFDTD, zeusmp): constant page stride, co-prime with
    the region so every page is visited per pass.
``zipf``
    skewed heap reuse (gcc, soplex, astar): Zipf-popular pages with the
    hot set **clustered at the start of the region** — hot data
    structures are contiguous in real address spaces.
``random``
    gups: uniform random pages, the TLB worst case.
``pointer``
    pointer chasing (mcf, canneal): follows a fixed random permutation
    cycle, so the sequence is unpredictable but repeats — enormous reuse
    distance, zero spatial locality.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator

from ..common.rng import ZipfSampler

#: A pattern factory: (pages, rng, params) -> infinite iterator of page ids.
PatternFactory = Callable[[int, random.Random, dict], Iterator[int]]


def sequential(pages: int, rng: random.Random, params: dict) -> Iterator[int]:
    """Wrap-around streaming sweep, optionally starting at a random page."""
    page = rng.randrange(pages) if params.get("random_start", False) else 0
    while True:
        yield page
        page += 1
        if page >= pages:
            page = 0


def strided(pages: int, rng: random.Random, params: dict) -> Iterator[int]:
    """Constant-stride sweep; the stride is forced co-prime with the size."""
    stride = int(params.get("stride", 17))
    while _gcd(stride, pages) != 1:
        stride += 1
    page = 0
    while True:
        yield page
        page = (page + stride) % pages


def zipf(pages: int, rng: random.Random, params: dict) -> Iterator[int]:
    """Zipf-popular pages, hot set clustered at low page indices."""
    alpha = float(params.get("alpha", 0.9))
    sampler = ZipfSampler(pages, alpha, rng)
    while True:
        yield sampler.sample()


def uniform_random(pages: int, rng: random.Random, params: dict) -> Iterator[int]:
    """Uniform random pages — the gups pattern."""
    while True:
        yield rng.randrange(pages)


def pointer_chase(pages: int, rng: random.Random, params: dict) -> Iterator[int]:
    """Walk a fixed random single-cycle permutation of the region's pages."""
    successor = _random_cycle(pages, rng)
    page = 0
    while True:
        yield page
        page = successor[page]


def _random_cycle(n: int, rng: random.Random) -> list:
    """A permutation of 0..n-1 forming one cycle (a 'sattolo' shuffle)."""
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i)
        items[i], items[j] = items[j], items[i]
    successor = [0] * n
    # items, read in order, is the cycle: items[k] -> items[k+1].
    for k in range(n):
        successor[items[k]] = items[(k + 1) % n]
    return successor


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


PATTERNS: Dict[str, PatternFactory] = {
    "sequential": sequential,
    "strided": strided,
    "zipf": zipf,
    "random": uniform_random,
    "pointer": pointer_chase,
}
