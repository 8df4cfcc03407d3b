"""Physical-address to DRAM-coordinate mapping.

We use the row-interleaved mapping common in die-stacked parts: consecutive
row-buffer-sized blocks of the physical address space rotate across banks.
This maximises row-buffer locality for sequential streams (addresses within
one 2 KiB block share a bank row) while spreading independent streams over
banks — exactly the behaviour the paper's Section 4.4 row-buffer-hit study
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common import addr
from ..common.config import DramTimingConfig


@dataclass(frozen=True)
class DramCoordinate:
    """Location of one access: which bank, which row, column byte offset."""

    bank: int
    row: int
    column: int


class AddressMapper:
    """Maps byte addresses to (bank, row, column) for one channel."""

    def __init__(self, timing: DramTimingConfig) -> None:
        self._row_shift = addr.ilog2(timing.row_buffer_bytes)
        self._bank_mask = timing.banks - 1
        self._bank_bits = addr.ilog2(timing.banks)
        self._col_mask = timing.row_buffer_bytes - 1

    def map(self, paddr: int) -> DramCoordinate:
        """Decompose ``paddr``: column inside row, bank from low row bits."""
        block = paddr >> self._row_shift
        return DramCoordinate(
            bank=block & self._bank_mask,
            row=block >> self._bank_bits,
            column=paddr & self._col_mask,
        )
