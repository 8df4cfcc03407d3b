"""Log-bucketed latency histograms with percentile estimation.

A :class:`LogHistogram` keeps one counter per power-of-two bucket
(bucket ``b`` holds values in ``[2**(b-1), 2**b - 1]``; bucket 0 holds
the value 0).  Recording appends to a pending list with no Python frame
and readers fold it into the buckets, so both stay cheap no matter how
long the run — the property that lets the simulator keep latency
distributions on by default.  Percentiles are estimated by linear
interpolation inside the covering bucket and clamped to the observed
``[min, max]`` range, which makes single-sample and constant-valued
histograms exact.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

#: One bucket per bit length of a value below 2**64 (the recordable range).
_BUCKETS = 65
#: Minimum of an empty histogram: above every recordable value.
_NO_MIN = 1 << 64
#: Pending-list length at which the scalar replay loop folds.
FOLD_AT = 4096


class LogHistogram:
    """Power-of-two-bucketed histogram of integer latencies below 2**64.

    Recording is deferred: :attr:`record` is the bound ``append`` of a
    pending list, so the replay loops record a latency with one
    C-level call and no Python frame.  Every reader
    folds the pending values into the buckets first (:meth:`fold`).
    Bucket, count, total, min and max are order-independent, so a fold
    gives exactly the state eager recording would have.  The scalar
    replay loop folds whenever the list reaches :data:`FOLD_AT` and the
    batch engine at every slice end, so the list stays short.
    """

    __slots__ = ("name", "_count", "_total", "_min", "_max", "_buckets",
                 "pending", "record")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._count = 0
        self._total = 0
        self._min = _NO_MIN
        self._max = 0
        #: count per bucket index (a list: folding is one increment each)
        self._buckets: List[int] = [0] * _BUCKETS
        #: Values recorded since the last fold.  Cleared in place, never
        #: rebound, so hoisted references stay valid across :meth:`reset`.
        self.pending: List[int] = []
        #: Count one observation of a value (negative values clamp to 0
        #: when folded): the pending list's bound ``append``.
        self.record = self.pending.append

    def fold(self) -> None:
        """Move every pending value into the buckets."""
        pending = self.pending
        if pending:
            record_many = self.record_many
            for value, n in Counter(pending).items():
                record_many(value, n)
            pending.clear()

    # -- folded readers -------------------------------------------------------

    @property
    def count(self) -> int:
        self.fold()
        return self._count

    @property
    def total(self) -> int:
        self.fold()
        return self._total

    @property
    def max(self) -> int:
        self.fold()
        return self._max

    @property
    def min(self) -> Optional[int]:
        """Smallest value recorded; ``None`` when empty."""
        self.fold()
        return self._min if self._count else None

    def record_many(self, value: int, n: int) -> None:
        """Count ``n`` observations of the same ``value`` in O(1).

        Exactly equivalent to calling :meth:`record` ``n`` times — every
        aggregate (buckets, count, total, min, max) is order-independent
        — which is what lets the batched replay engine account a whole
        slice of constant-latency hits at once.
        """
        if n <= 0:
            return
        if value < 0:
            value = 0
        self._buckets[value.bit_length()] += n
        self._count += n
        self._total += value * n
        if value > self._max:
            self._max = value
        if value < self._min:
            self._min = value

    def _nonempty(self):
        """``(bucket, count)`` of every non-empty bucket, ascending."""
        self.fold()
        return [(bucket, n) for bucket, n in enumerate(self._buckets) if n]

    # -- derived metrics ----------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile (``0 <= p <= 100``)."""
        if not self.count:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} outside [0, 100]")
        target = max(1, -(-self.count * p // 100))  # ceil, at least rank 1
        cumulative = 0
        estimate = 0.0
        for bucket, in_bucket in self._nonempty():
            if cumulative + in_bucket >= target:
                lo = 0 if bucket == 0 else 1 << (bucket - 1)
                hi = 0 if bucket == 0 else (1 << bucket) - 1
                fraction = (target - cumulative) / in_bucket
                estimate = lo + fraction * (hi - lo)
                break
            cumulative += in_bucket
        low = self.min if self.min is not None else 0
        return float(min(max(estimate, low), self.max))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p90(self) -> float:
        return self.percentile(90)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Forget every observation (used at the warmup boundary)."""
        self.pending.clear()
        self._count = 0
        self._total = 0
        self._min = _NO_MIN
        self._max = 0
        self._buckets = [0] * _BUCKETS

    # -- reporting ----------------------------------------------------------

    def buckets(self) -> List[List[int]]:
        """``[lo, hi, count]`` rows for every non-empty bucket, ascending."""
        rows = []
        for bucket, n in self._nonempty():
            lo = 0 if bucket == 0 else 1 << (bucket - 1)
            hi = 0 if bucket == 0 else (1 << bucket) - 1
            rows.append([lo, hi, n])
        return rows

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary: moments, percentiles and bucket rows."""
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "buckets": self.buckets(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LogHistogram":
        """Rebuild a histogram from :meth:`as_dict` output (checkpoint restore).

        Derived fields (mean, percentiles) are recomputed from the bucket
        rows; only the raw state is read back.
        """
        histogram = cls(str(data.get("name", "")))
        histogram._count = int(data["count"])  # type: ignore[arg-type]
        histogram._total = int(data["total"])  # type: ignore[arg-type]
        histogram._max = int(data["max"])  # type: ignore[arg-type]
        if histogram._count:
            histogram._min = int(data["min"])  # type: ignore[arg-type]
        for lo, _hi, n in data.get("buckets", []):  # type: ignore[union-attr]
            histogram._buckets[int(lo).bit_length()] = int(n)
        return histogram

    # -- pickling (results cross the campaign's worker pipes) ---------------

    def __getstate__(self):
        self.fold()
        return (self.name, self._count, self._total, self._min, self._max,
                self._buckets)

    def __setstate__(self, state) -> None:
        (self.name, self._count, self._total, self._min, self._max,
         self._buckets) = state
        self.pending = []
        self.record = self.pending.append

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LogHistogram({self.name!r}, n={self.count}, "
                f"p50={self.p50:.0f}, p99={self.p99:.0f}, max={self.max})")
