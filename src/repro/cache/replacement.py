"""Replacement policies for set-associative structures.

The same policy objects drive the data caches, the SRAM TLBs and (in
2-bit-LRU form) the POM-TLB sets.  A policy instance manages the recency
state of **one set**; structures create one instance per set via the
policy's class.

The interface is minimal on purpose — ``touch`` on hit/insert and
``victim`` on replacement — because that is all the paper's structures
need, and it keeps the hot path to one or two dict operations.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Hashable, Iterable, List, Optional


class ReplacementPolicy:
    """Recency state of one set.  Keys are opaque hashables (tags)."""

    def touch(self, key: Hashable) -> None:
        """Record a hit on (or insertion of) ``key``."""
        raise NotImplementedError

    def victim(self) -> Hashable:
        """Choose the key to evict.  The caller removes it afterwards."""
        raise NotImplementedError

    def keys(self) -> Iterable[Hashable]:
        """All currently tracked keys."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """True least-recently-used, via an ordered dict (oldest first)."""

    def __init__(self) -> None:
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def touch(self, key: Hashable) -> None:
        if key in self._order:
            self._order.move_to_end(key)
        else:
            self._order[key] = None

    def victim(self) -> Hashable:
        return next(iter(self._order))

    def keys(self) -> Iterable[Hashable]:
        return self._order.keys()

    def __len__(self) -> int:
        return len(self._order)


class FifoPolicy(ReplacementPolicy):
    """First-in first-out: hits do not refresh position."""

    def __init__(self) -> None:
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def touch(self, key: Hashable) -> None:
        if key not in self._order:
            self._order[key] = None

    def victim(self) -> Hashable:
        return next(iter(self._order))

    def keys(self) -> Iterable[Hashable]:
        return self._order.keys()

    def __len__(self) -> int:
        return len(self._order)


class RandomPolicy(ReplacementPolicy):
    """Uniform-random victim selection (deterministic via shared RNG)."""

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._members: List[Hashable] = []
        self._index = {}
        self._rng = rng or random.Random(0)

    def touch(self, key: Hashable) -> None:
        if key not in self._index:
            self._index[key] = len(self._members)
            self._members.append(key)

    def victim(self) -> Hashable:
        return self._members[self._rng.randrange(len(self._members))]

    def keys(self) -> Iterable[Hashable]:
        return list(self._members)

    def __len__(self) -> int:
        return len(self._members)


POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a policy by name (``lru``, ``fifo``, ``random``)."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}") from None
