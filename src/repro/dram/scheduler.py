"""Command-level DRAM model: FR-FCFS scheduling over banks and a bus.

The simple :class:`~repro.dram.channel.DramChannel` is a latency model —
each access is priced in isolation.  This module is the high-fidelity
backend for the paper's **channel contention** discussion (Section 2.2):
when translation traffic shares a channel with data traffic, requests
queue behind each other; on a dedicated channel they do not.  To show
that, commands must actually contend for banks and the data bus.

Model (all times in memory-bus cycles):

* open-page banks with ``ACT -> RD/WR -> (PRE)`` sequencing, respecting
  tRCD, tCAS/tCWL, tRP, tRAS, tWR, tCCD and the four-activate window
  tFAW;
* one shared data bus per channel: bursts serialize;
* **FR-FCFS** arbitration: among arrived requests, row hits go first,
  then oldest-first — the standard policy Ramulator defaults to;
* the row-interleaved address mapping common in die-stacked parts:
  consecutive row-buffer-sized blocks rotate across banks, so addresses
  within one block share a bank row (row-buffer locality for sequential
  streams) while independent streams spread over banks.

Use :meth:`CommandScheduler.run` on a list of :class:`Request`\\ s; each
comes back with issue/completion times, from which per-class latency
statistics are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..common import addr
from ..common.config import DramTimingConfig
from ..common.stats import StatGroup


@dataclass
class Request:
    """One memory request entering the channel queue."""

    paddr: int
    arrival: int              # bus cycle the request reaches the controller
    is_write: bool = False
    tag: str = "data"         # request class, e.g. "data" or "tlb"
    # Filled by the scheduler:
    completion: int = field(default=-1, compare=False)

    @property
    def latency(self) -> int:
        """Queueing + service latency in bus cycles (after run())."""
        if self.completion < 0:
            raise ValueError("request not yet serviced")
        return self.completion - self.arrival


class _BankState:
    """Timing state of one bank."""

    __slots__ = ("open_row", "ready_at", "ras_until", "write_recovery_until",
                 "precharged_at")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.ready_at = 0              # row buffer usable from here
        self.ras_until = 0             # earliest PRE after the last ACT
        self.write_recovery_until = 0  # earliest PRE after the last WR
        self.precharged_at = 0         # bank idle from here


class CommandScheduler:
    """FR-FCFS open-page scheduler for one channel."""

    def __init__(self, timing: DramTimingConfig,
                 stats: Optional[StatGroup] = None) -> None:
        self.timing = timing
        self.stats = stats or StatGroup("sched")
        self._row_shift = addr.ilog2(timing.row_buffer_bytes)
        self._bank_mask = timing.banks - 1
        self._bank_bits = addr.ilog2(timing.banks)
        self._column_mask = timing.row_buffer_bytes - 1
        self._banks = [_BankState() for _ in range(timing.banks)]
        self._bus_free_at = 0
        self._act_times: List[int] = []  # for the tFAW window
        # Derived timings.
        self._tcl = timing.tcas
        self._tcwl = max(1, timing.tcas - 2)
        self._burst = max(1, -(-addr.CACHE_LINE_SIZE
                               // max(1, timing.bus_bits // 8 * 2)))
        self._tras = getattr(timing, "tras", timing.trcd + timing.tcas + 8)
        self._twr = getattr(timing, "twr", timing.tcas)
        self._tfaw = getattr(timing, "tfaw", 4 * timing.trcd)
        self._tccd = getattr(timing, "tccd", max(2, self._burst))

    def locate(self, paddr: int) -> Tuple[int, int, int]:
        """``(bank, row, column)`` of ``paddr``: the column is its offset
        in the row buffer, the bank the low bits of its row-buffer block."""
        block = paddr >> self._row_shift
        return (block & self._bank_mask, block >> self._bank_bits,
                paddr & self._column_mask)

    # -- arbitration ----------------------------------------------------------

    def _pick(self, queue: List[Request], now: int) -> int:
        """FR-FCFS: first row hit among arrived requests, else oldest."""
        oldest = None
        for index, request in enumerate(queue):
            if request.arrival > now:
                break
            bank, row, _column = self.locate(request.paddr)
            if self._banks[bank].open_row == row:
                return index
            if oldest is None:
                oldest = index
        return oldest if oldest is not None else 0

    # -- command timing ----------------------------------------------------

    def _activate(self, bank: _BankState, row: int, earliest: int) -> int:
        """Schedule PRE (if needed) + ACT; returns when the row is ready."""
        start = max(earliest, bank.precharged_at)
        if bank.open_row is not None:
            pre_at = max(start, bank.ras_until, bank.write_recovery_until)
            start = pre_at + self.timing.trp
            self.stats.inc("precharges")
        # tFAW: at most 4 activates per rolling window.
        if len(self._act_times) >= 4:
            window_start = self._act_times[-4]
            start = max(start, window_start + self._tfaw)
        self._act_times.append(start)
        if len(self._act_times) > 8:
            del self._act_times[:4]
        bank.open_row = row
        bank.ready_at = start + self.timing.trcd
        bank.ras_until = start + self._tras
        self.stats.inc("activates")
        return bank.ready_at

    def _service(self, request: Request, now: int) -> int:
        """Issue the column command; returns the completion time."""
        bank_index, row, _column = self.locate(request.paddr)
        bank = self._banks[bank_index]
        if bank.open_row == row:
            ready = max(now, bank.ready_at)
            self.stats.inc("row_hits")
        else:
            ready = self._activate(bank, row, now)
            self.stats.inc("row_misses" if bank.precharged_at >= bank.ras_until
                           else "row_conflicts")
        # Column command + data burst must win the shared bus.
        if request.is_write:
            issue = max(ready, self._bus_free_at - self._tcwl + self._tccd)
            data_start = issue + self._tcwl
            self.stats.inc("writes")
        else:
            issue = max(ready, self._bus_free_at - self._tcl + self._tccd)
            data_start = issue + self._tcl
            self.stats.inc("reads")
        data_start = max(data_start, self._bus_free_at)
        completion = data_start + self._burst
        self._bus_free_at = completion
        if request.is_write:
            bank.write_recovery_until = completion + self._twr
        return completion

    # -- driving --------------------------------------------------------------

    def run(self, requests: Sequence[Request]) -> List[Request]:
        """Service every request; fills ``completion``, returns the list.

        Requests may arrive in any order; the queue drains under FR-FCFS.
        """
        queue = sorted(requests, key=lambda r: (r.arrival, r.paddr))
        now = 0
        while queue:
            now = max(now, queue[0].arrival)
            index = self._pick(queue, now)
            request = queue.pop(index)
            now = max(now, request.arrival)
            request.completion = self._service(request, now)
            # Arbitration advances with the bus: requests that arrived
            # while this burst was in flight are visible next round.
            now = max(now, request.completion - self._burst)
            self.stats.inc("serviced")
        return list(requests)


@dataclass(frozen=True)
class LatencySummary:
    """Per-class latency statistics out of a scheduler run."""

    count: int
    mean: float
    p95: float
    worst: int


def summarize_latencies(requests: Sequence[Request],
                        tag: Optional[str] = None) -> LatencySummary:
    """Latency summary over (a class of) serviced requests."""
    chosen = [r for r in requests if tag is None or r.tag == tag]
    if not chosen:
        return LatencySummary(count=0, mean=0.0, p95=0.0, worst=0)
    latencies = sorted(r.latency for r in chosen)
    index = min(len(latencies) - 1, int(0.95 * len(latencies)))
    return LatencySummary(
        count=len(latencies),
        mean=sum(latencies) / len(latencies),
        p95=float(latencies[index]),
        worst=latencies[-1],
    )
