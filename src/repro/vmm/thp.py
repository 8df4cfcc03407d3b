"""Transparent-huge-page policy.

Linux THP promotes 2 MiB-aligned virtual regions to large pages
opportunistically.  The simulator's policy decides, per 2 MiB virtual
region of a process, whether the region is backed by one large page or
by 512 small pages.  The decision is a deterministic hash of
(seed, asid, region), thresholded at the benchmark's large-page
fraction — so a workload replays identically across schemes, which the
paper's methodology requires (every scheme sees the same page-size mix,
Table 2's "Frac Large Pages" row).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple


class ThpPolicy:
    """Decides large-vs-small backing per 2 MiB virtual region."""

    def __init__(self, large_fraction: float, seed: int = 0) -> None:
        if not 0.0 <= large_fraction <= 1.0:
            raise ValueError("large_fraction must be in [0, 1]")
        self.large_fraction = large_fraction
        self.seed = seed
        self._decisions: Dict[Tuple[int, int], bool] = {}

    def is_large_region(self, asid: int, large_vpn: int) -> bool:
        """True when region ``large_vpn`` of process ``asid`` is a 2MiB page."""
        key = (asid, large_vpn)
        cached = self._decisions.get(key)
        if cached is not None:
            return cached
        if self.large_fraction >= 1.0:
            decision = True
        elif self.large_fraction <= 0.0:
            decision = False
        else:
            digest = hashlib.blake2b(
                f"{self.seed}:{asid}:{large_vpn}".encode(), digest_size=8).digest()
            point = int.from_bytes(digest, "little") / 2 ** 64
            decision = point < self.large_fraction
        self._decisions[key] = decision
        return decision
