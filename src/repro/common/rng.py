"""Deterministic random-number utilities.

Every stochastic element of the simulator (workload generation, frame
allocation) draws from a seeded :class:`random.Random` so that runs are
exactly reproducible.  This module adds the small distributions the
workload generators need on top of the standard library.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import List


def make_rng(seed: int, stream: str = "") -> random.Random:
    """Create an independent RNG for ``(seed, stream)``.

    Different ``stream`` labels derive decorrelated generators from the
    same experiment seed, so adding a new consumer never perturbs the
    draws of existing ones.
    """
    return random.Random(f"{seed}:{stream}")


class ZipfSampler:
    """Sample integers ``0..n-1`` with a Zipf(``alpha``) popularity skew.

    Rank 0 is the hottest item.  ``alpha = 0`` degenerates to uniform.
    Uses an O(log n) inverse-CDF lookup over precomputed cumulative
    weights, which is fast enough for multi-million-reference traces and
    exact (no rejection sampling).
    """

    def __init__(self, n: int, alpha: float, rng: random.Random) -> None:
        if n <= 0:
            raise ValueError("ZipfSampler needs a positive population")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.n = n
        self.alpha = alpha
        self._rng = rng
        weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
        self._cum: List[float] = list(accumulate(weights))
        self._total = self._cum[-1]

    def sample(self) -> int:
        """Draw one rank (0 = most popular)."""
        point = self._rng.random() * self._total
        return bisect_right(self._cum, point)


def shuffled_ranks(n: int, rng: random.Random) -> List[int]:
    """A random permutation of ``0..n-1``.

    Workload generators use this to scatter Zipf ranks over the address
    space, so popularity is decoupled from address order (hot pages are
    not all adjacent).
    """
    ranks = list(range(n))
    rng.shuffle(ranks)
    return ranks

